package repro.core.sp

import repro.core.td.TD
import repro.graph.RoadGraph

/** Index-free shortest-path algorithms: ground truth and the Q-Stage-1
  * query method of every solution in the paper.
  */
object Dijkstra {

  /** Unreachable: the same value as the indexes' `TD.Inf`. */
  val Inf: Int = TD.Inf

  /** Single-source distances via lazy-deletion binary-heap Dijkstra. */
  def sssp(g: RoadGraph, s: Int): Array[Int] = {
    val dist = Array.fill(g.n)(Inf)
    val pq = new java.util.PriorityQueue[java.lang.Long]()
    dist(s) = 0
    pq.add(s.toLong)
    while (!pq.isEmpty) {
      val top = pq.poll().longValue()
      val d = (top >>> 32).toInt; val u = top.toInt
      if (d == dist(u)) {
        g.foreachNeighbor(u) { (v, w) =>
          val nd = d + w
          if (nd < dist(v)) { dist(v) = nd; pq.add((nd.toLong << 32) | v.toLong) }
        }
      }
    }
    dist
  }

  /** Point-to-point distance with early termination at `t`. */
  def query(g: RoadGraph, s: Int, t: Int): Int = {
    if (s == t) return 0
    val dist = Array.fill(g.n)(Inf)
    val pq = new java.util.PriorityQueue[java.lang.Long]()
    dist(s) = 0
    pq.add(s.toLong)
    while (!pq.isEmpty) {
      val top = pq.poll().longValue()
      val d = (top >>> 32).toInt; val u = top.toInt
      if (u == t) return d
      if (d == dist(u)) {
        g.foreachNeighbor(u) { (v, w) =>
          val nd = d + w
          if (nd < dist(v)) { dist(v) = nd; pq.add((nd.toLong << 32) | v.toLong) }
        }
      }
    }
    Inf
  }
}

/** Bidirectional Dijkstra [11] — the paper's index-free baseline and the
  * query algorithm available immediately after U-Stage 1 (on-spot edge
  * update) in MHL/PMHL/PostMHL.
  */
object BiDijkstra {
  import Dijkstra.Inf

  /** Point-to-point distance via alternating forward/backward search.
    * Terminates when topF + topB ≥ best meeting distance (standard bound
    * for the alternate-smaller-frontier strategy).
    */
  def query(g: RoadGraph, s: Int, t: Int): Int = {
    if (s == t) return 0
    val dF = Array.fill(g.n)(Inf); val dB = Array.fill(g.n)(Inf)
    val pqF = new java.util.PriorityQueue[java.lang.Long]()
    val pqB = new java.util.PriorityQueue[java.lang.Long]()
    dF(s) = 0; dB(t) = 0
    pqF.add(s.toLong); pqB.add(t.toLong)
    var best = Inf
    while (!pqF.isEmpty && !pqB.isEmpty) {
      val headF = (pqF.peek().longValue() >>> 32).toInt
      val headB = (pqB.peek().longValue() >>> 32).toInt
      if (headF.toLong + headB.toLong >= best) return best
      if (headF <= headB) {
        val top = pqF.poll().longValue()
        val d = (top >>> 32).toInt; val u = top.toInt
        if (d == dF(u)) {
          if (dB(u) < Inf && d + dB(u) < best) best = d + dB(u)
          g.foreachNeighbor(u) { (v, w) =>
            val nd = d + w
            if (nd < dF(v)) { dF(v) = nd; pqF.add((nd.toLong << 32) | v.toLong) }
          }
        }
      } else {
        val top = pqB.poll().longValue()
        val d = (top >>> 32).toInt; val u = top.toInt
        if (d == dB(u)) {
          if (dF(u) < Inf && d + dF(u) < best) best = d + dF(u)
          g.foreachNeighbor(u) { (v, w) =>
            val nd = d + w
            if (nd < dB(v)) { dB(v) = nd; pqB.add((nd.toLong << 32) | v.toLong) }
          }
        }
      }
    }
    best
  }
}
