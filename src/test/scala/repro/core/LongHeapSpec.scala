package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.util.LongHeap
import scala.collection.mutable
import scala.util.Random

/** The primitive heap behind MDE and the Dijkstra searches, against a
  * sorted reference.
  */
class LongHeapSpec extends AnyFunSuite {

  test("interleaved push and pop with duplicate keys match a sorted reference") {
    val rnd = new Random(1502)
    for (round <- 1 to 20) {
      val heap = new LongHeap(0)
      val ref = mutable.ArrayBuffer[Long]()
      assert(heap.isEmpty)
      for (_ <- 1 to 2000) {
        if (ref.isEmpty || rnd.nextInt(5) < 3) {
          // Few distinct priorities, so many keys repeat; some carry a vertex.
          val k = (rnd.nextInt(40).toLong << 32) | (if (rnd.nextBoolean()) 0L else rnd.nextInt(round).toLong)
          heap.push(k); ref += k
        } else {
          val m = ref.min
          assert(heap.peek() == m)
          assert(heap.pop() == m)
          ref -= m
        }
        assert(heap.isEmpty == ref.isEmpty)
        if (ref.nonEmpty) assert(heap.peek() == ref.min)
      }
      // Drain: keys come out in sorted order.
      val out = Iterator.continually(heap).takeWhile(!_.isEmpty).map(_.pop()).toVector
      assert(out == ref.sorted.toVector, s"round $round")
      assert(heap.isEmpty)
    }
  }

  test("grows past its initial capacity") {
    val heap = new LongHeap(4)
    val keys = Seq.tabulate(1000)(i => ((i * 7919L) % 1000) << 32 | i)
    keys.foreach(heap.push)
    assert(heap.peek() == keys.min)
    assert(Seq.fill(1000)(heap.pop()) == keys.sorted)
    assert(heap.isEmpty)
  }
}
