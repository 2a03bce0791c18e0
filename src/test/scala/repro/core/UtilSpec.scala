package repro.core

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.{Seconds, Span}
import java.util.concurrent.CountDownLatch
import java.util.concurrent.atomic.AtomicInteger
import repro.util.{Parallel, TreeLca}
import repro.throughput.{Measure, Params, StageProfile}
import repro.graph.Datasets
import scala.util.Random

/** Utilities: generic forest LCA, bounded parallel runner, measurement
  * harness, and parameter registry.
  */
class UtilSpec extends AnyFunSuite with TimeLimits {

  test("TreeLca agrees with parent-walk on a random forest") {
    val n = 200
    val rnd = new Random(401)
    val parent = new Array[Int](n)
    parent(0) = -1; parent(1) = -1 // two roots
    for (v <- 2 until n) parent(v) = rnd.nextInt(v)
    val children = Array.fill(n)(List.newBuilder[Int])
    for (v <- 0 until n if parent(v) != -1) children(parent(v)) += v
    val depth = new Array[Int](n)
    for (v <- 0 until n) { // parents have smaller ids
      depth(v) = if (parent(v) == -1) 0 else depth(parent(v)) + 1
    }
    val lca = new TreeLca(n, parent, children.map(_.result().toArray), depth,
      Array(0, 1))
    def naive(a: Int, b: Int): Int = {
      var x = a; var y = b
      while (depth(x) > depth(y)) x = parent(x)
      while (depth(y) > depth(x)) y = parent(y)
      while (x != y) {
        if (parent(x) == -1 || parent(y) == -1) return -1
        x = parent(x); y = parent(y)
      }
      x
    }
    for (_ <- 1 to 500) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      assert(lca.lca(a, b) == naive(a, b), s"($a,$b)")
    }
  }

  test("Parallel.run executes all tasks and respects failures") {
    val counter = new java.util.concurrent.atomic.AtomicInteger()
    Parallel.run((1 to 40).map(_ => () => { counter.incrementAndGet(); () }), 4)
    assert(counter.get() == 40)
    val ex = intercept[Exception] {
      Parallel.run(Seq(() => (), () => throw new IllegalStateException("boom")), 2)
    }
    assert(ex.getCause != null || ex.isInstanceOf[IllegalStateException] ||
      ex.getMessage != null)
  }

  test("Parallel.run limits concurrency to p") {
    val active = new java.util.concurrent.atomic.AtomicInteger()
    val maxSeen = new java.util.concurrent.atomic.AtomicInteger()
    Parallel.run((1 to 20).map(_ => () => {
      val a = active.incrementAndGet()
      maxSeen.updateAndGet(m => math.max(m, a))
      Thread.sleep(5)
      active.decrementAndGet()
      ()
    }), 3)
    assert(maxSeen.get() <= 3, s"saw ${maxSeen.get()} concurrent tasks with p=3")
  }

  test("Parallel.run on a failure skips the tasks not started, waits for the running ones, rethrows the cause") {
    implicit val signaler: Signaler = ThreadSignaler
    failAfter(Span(60, Seconds)) {
      val started = new AtomicInteger(); val running = new AtomicInteger()
      val boom = new IllegalStateException("boom")
      val slow = (1 to 40).map(_ => () => {
        started.incrementAndGet(); running.incrementAndGet()
        try Thread.sleep(20) finally running.decrementAndGet()
        ()
      })
      val ex = intercept[IllegalStateException](Parallel.run((() => throw boom) +: slow, 2))
      assert(ex eq boom)
      assert(running.get == 0, "a task was still running when the call returned")
      assert(started.get < slow.length, "the tasks not started still ran")
      // A task that gave up because of another's failure does not replace
      // that failure, even when it stops first.
      val first = new CountDownLatch(1)
      val ex2 = intercept[IllegalStateException](Parallel.run(Seq(
        () => { first.countDown(); Thread.sleep(100); throw boom },
        () => { first.await(); throw new Parallel.Abandoned }), 2))
      assert(ex2 eq boom)
    }
  }

  test("Parallel.map preserves order") {
    val out = Parallel.map((1 to 50).toSeq, 8)(x => x * x)
    assert(out == (1 to 50).map(x => x * x))
  }

  test("Measure.randomPairs deterministic and in range") {
    val a = Measure.randomPairs(100, 50, 7)
    val b = Measure.randomPairs(100, 50, 7)
    assert(a == b)
    assert(a.forall { case (s, t) => s >= 0 && s < 100 && t >= 0 && t < 100 })
    assert(Measure.randomPairs(100, 50, 8) != a)
  }

  test("Measure.sampleTimes returns a positive sample per pair") {
    val times = Measure.sampleTimes((a, b) => a + b, Measure.randomPairs(10, 30, 1))
    assert(times.length == 30)
    assert(times.forall(_ >= 0))
  }

  test("StageProfile mean/variance") {
    val p = StageProfile(0.0, Array(1.0, 2.0, 3.0), "x")
    assert(math.abs(p.mean - 2.0) < 1e-12)
    assert(math.abs(p.variance - 2.0 / 3.0) < 1e-12)
  }

  test("Params registry covers the paper sweeps") {
    assert(Params.updateVolumeFactors.size == 4)
    assert(Params.deltaTs.size == 4 && Params.rqStars.size == 4)
    assert(Params.deltaTFor(Datasets.CTR) > Params.deltaTFor(Datasets.NY))
    assert(Params.rqStarFor(Datasets.USA) > Params.rqStarFor(Datasets.FLA))
  }
}
