package repro.partition

import repro.core.td.TD
import scala.collection.mutable

/** Result of tree-decomposition-based partitioning (§VI-A, Algorithm 2).
  *
  * @param k      number of partitions actually formed
  * @param partOf partition id per vertex; -1 = overlay vertex
  * @param roots  root vertex of each partition (its tree node plus all
  *               descendants form the partition; its bag X(root).N is the
  *               partition's boundary vertex set, all overlay vertices)
  */
final case class TDPartition(k: Int, partOf: Array[Int], roots: Array[Int]) {
  def overlayCount: Int = partOf.count(_ == -1)
}

/** TD-partitioning: derive a graph partitioning *from* the MDE vertex
  * ordering so the PSP index inherits its high-quality order (the reverse
  * use of Theorem 1). Root candidates are tree nodes whose subtree size is
  * within [βl·|V|/ke, βu·|V|/ke] and whose bag is within the bandwidth τ;
  * the minimum-overlay strategy then greedily picks candidates top-down
  * (highest rank first) so no chosen root is an ancestor of another.
  */
object TDPartitioner {

  def partition(td: TD, tau: Int, ke: Int,
                betaL: Double = 0.1, betaU: Double = 2.0): TDPartition = {
    val n = td.n
    // Subtree sizes, bottom-up (ascending rank = children before parents).
    val cN = Array.fill(n)(1)
    for (r <- 0 until n) {
      val v = td.order(r)
      if (td.parent(v) != -1) cN(td.parent(v)) += cN(v)
    }
    val lo = betaL * n / ke
    val hi = betaU * n / ke
    // Candidates in decreasing vertex order.
    val vc = (n - 1 to 0 by -1).map(td.order)
      .filter(v => cN(v) >= lo && cN(v) <= hi && td.bag(v).length <= tau)
    // Minimum-overlay greedy: keep v unless a chosen root is its ancestor.
    val chosen = new mutable.HashSet[Int]()
    val rootsBuf = new mutable.ArrayBuffer[Int]()
    for (v <- vc) {
      var a = td.parent(v); var blocked = false
      while (a != -1 && !blocked) { if (chosen.contains(a)) blocked = true; a = td.parent(a) }
      if (!blocked) { chosen += v; rootsBuf += v }
    }
    val partOf = Array.fill(n)(-1)
    for ((r, i) <- rootsBuf.zipWithIndex) {
      val stack = new java.util.ArrayDeque[Integer]()
      stack.push(r)
      while (!stack.isEmpty) {
        val v = stack.pop().intValue()
        partOf(v) = i
        td.children(v).foreach(stack.push(_))
      }
    }
    TDPartition(rootsBuf.size, partOf, rootsBuf.toArray)
  }
}
