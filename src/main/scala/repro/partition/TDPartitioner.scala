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
  * (highest rank first) so no chosen root is an ancestor of another. The
  * partition of a root is the root and all its descendants.
  */
object TDPartitioner {

  def partition(td: TD, tau: Int, ke: Int,
                betaL: Double = 0.1, betaU: Double = 2.0): TDPartition = {
    val n = td.n
    val size = td.subtreeSize
    val lo = betaL * n / ke
    val hi = betaU * n / ke
    // One pass in decreasing rank (parents before children): a vertex under
    // a chosen root joins its partition; any other candidate becomes a root.
    val partOf = Array.fill(n)(-1)
    val roots = new mutable.ArrayBuilder.ofInt
    var k = 0
    var r = n - 1
    while (r >= 0) {
      val v = td.order(r); val p = td.parent(v)
      if (p != -1 && partOf(p) != -1) partOf(v) = partOf(p)
      else if (size(v) >= lo && size(v) <= hi && td.bag(v).length <= tau) {
        partOf(v) = k; roots += v; k += 1
      }
      r -= 1
    }
    TDPartition(k, partOf, roots.result())
  }
}
