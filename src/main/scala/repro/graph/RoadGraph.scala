package repro.graph

import repro.core.td.TD
import scala.collection.mutable.ArrayBuffer

/** Compact undirected weighted road network.
  *
  * Vertices are `0 until n`. The adjacency is CSR (`off`/`dst`) with a
  * *mutable* parallel weight array `w`, because the paper's dynamic setting
  * is edge-weight increase/decrease on a fixed topology. Each undirected
  * edge is stored as two directed arcs; `setWeight` updates both.
  *
  * Coordinates `xs`/`ys` exist for the PUNCH-substitute spatial partitioner
  * (see DESIGN.md §2) and are synthetic for random test graphs.
  */
final class RoadGraph(
    val n: Int,
    val off: Array[Int],
    val dst: Array[Int],
    val w: Array[Int],
    val xs: Array[Double],
    val ys: Array[Double],
) {
  /** Number of undirected edges. */
  val m: Int = dst.length / 2

  /** Iterate neighbors of `v` as (neighbor, weight) without allocation. */
  def foreachNeighbor(v: Int)(f: (Int, Int) => Unit): Unit = {
    var i = off(v)
    while (i < off(v + 1)) { f(dst(i), w(i)); i += 1 }
  }

  /** Arc index of (u, v) in the CSR arrays, or -1 if absent. */
  def arcIndex(u: Int, v: Int): Int = {
    var i = off(u)
    while (i < off(u + 1)) { if (dst(i) == v) return i; i += 1 }
    -1
  }

  /** Current weight of undirected edge (u, v); -1 if the edge is absent. */
  def weight(u: Int, v: Int): Int = {
    val i = arcIndex(u, v)
    if (i < 0) -1 else w(i)
  }

  /** The largest weight `setWeight` and `fromEdges` accept: no simple path
    * (at most n - 1 edges) of such weights sums to `TD.Inf`.
    */
  val maxWeight: Int = RoadGraph.weightCap(n)

  /** Set the weight of undirected edge (u, v) in both arc directions. The
    * weight must be positive and at most `maxWeight`.
    */
  def setWeight(u: Int, v: Int, nw: Int): Unit = {
    require(nw > 0, "non-positive weight")
    require(nw <= maxWeight,
      s"weight $nw on edge ($u,$v): a path of ${n - 1} such edges would reach Inf")
    val i = arcIndex(u, v); val j = arcIndex(v, u)
    require(i >= 0 && j >= 0, s"edge ($u,$v) not present")
    w(i) = nw; w(j) = nw
  }

  /** Deep copy (shared topology arrays, fresh weights) for what-if rebuilds. */
  def copyWeights(): RoadGraph = new RoadGraph(n, off, dst, w.clone(), xs, ys)

  /** All undirected edges as (u, v, w) with u < v. */
  def undirectedEdges: IndexedSeq[(Int, Int, Int)] = {
    val buf = new ArrayBuffer[(Int, Int, Int)](m)
    var u = 0
    while (u < n) {
      var i = off(u)
      while (i < off(u + 1)) { if (u < dst(i)) buf += ((u, dst(i), w(i))); i += 1 }
      u += 1
    }
    buf.toIndexedSeq
  }
}

object RoadGraph {

  /** The weight cap of an n-vertex graph (see the `maxWeight` member). */
  private def weightCap(n: Int): Int = if (n <= 1) Int.MaxValue else (TD.Inf - 1) / (n - 1)

  /** Build a RoadGraph from undirected edges (u, v, w); duplicates keep min
    * weight. Endpoints must lie in [0, n) and differ; weights must be
    * positive and at most `maxWeight`.
    */
  def fromEdges(n: Int, edges: Seq[(Int, Int, Int)],
                xs: Array[Double] = null, ys: Array[Double] = null): RoadGraph = {
    val cap = weightCap(n)
    val best = new java.util.HashMap[Long, Int]()
    edges.foreach { case (u, v, wt) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) has an endpoint outside [0, $n)")
      require(u != v, "self loop"); require(wt > 0, "non-positive weight")
      require(wt <= cap, s"weight $wt on edge ($u,$v): a path of ${n - 1} such edges would reach Inf")
      val key = (math.min(u, v).toLong << 32) | math.max(u, v).toLong
      val old = best.get(key)
      if (!best.containsKey(key) || wt < old) best.put(key, wt)
    }
    val deg = new Array[Int](n)
    best.forEach { (k, _) =>
      deg((k >> 32).toInt) += 1; deg(k.toInt & 0x7fffffff) += 1
    }
    val off = new Array[Int](n + 1)
    var i = 0
    while (i < n) { off(i + 1) = off(i) + deg(i); i += 1 }
    val pos = off.clone()
    val dstA = new Array[Int](off(n))
    val wA = new Array[Int](off(n))
    best.forEach { (k, wt) =>
      val u = (k >> 32).toInt; val v = k.toInt & 0x7fffffff
      dstA(pos(u)) = v; wA(pos(u)) = wt; pos(u) += 1
      dstA(pos(v)) = u; wA(pos(v)) = wt; pos(v) += 1
    }
    val x = if (xs != null) xs else new Array[Double](n)
    val y = if (ys != null) ys else new Array[Double](n)
    new RoadGraph(n, off, dstA, wA, x, y)
  }
}
