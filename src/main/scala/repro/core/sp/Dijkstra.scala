package repro.core.sp

import repro.core.td.TD
import repro.graph.RoadGraph
import repro.util.LongHeap

/** One Dijkstra search from `s`, created per call: tentative distances and
  * a lazy min-heap of `d << 32 | v` keys, whose stale entries are skipped
  * when popped.
  */
private final class Frontier(g: RoadGraph, s: Int) {
  val dist: Array[Int] = Array.fill(g.n)(Dijkstra.Inf)
  private val heap = new LongHeap(16)
  dist(s) = 0
  heap.push(s.toLong)

  def isEmpty: Boolean = heap.isEmpty

  /** The head key's distance: no unsettled vertex is nearer. */
  def head: Int = (heap.peek() >>> 32).toInt

  /** Pops the head entry. If it is current, settles its vertex, relaxes
    * the vertex's arcs and returns it; if it is stale, returns -1.
    */
  def step(): Int = {
    val top = heap.pop()
    val d = (top >>> 32).toInt; val u = top.toInt
    if (d != dist(u)) return -1
    g.foreachNeighbor(u) { (v, w) =>
      val nd = d + w
      if (nd < dist(v)) { dist(v) = nd; heap.push((nd.toLong << 32) | v.toLong) }
    }
    u
  }
}

/** Index-free shortest-path algorithms: ground truth and the Q-Stage-1
  * query method of every solution in the paper.
  */
object Dijkstra {

  /** Unreachable: the same value as the indexes' `TD.Inf`. */
  val Inf: Int = TD.Inf

  /** Single-source distances. */
  def sssp(g: RoadGraph, s: Int): Array[Int] = {
    val f = new Frontier(g, s)
    while (!f.isEmpty) f.step()
    f.dist
  }

  /** Point-to-point distance; the search stops when it settles `t`. */
  def query(g: RoadGraph, s: Int, t: Int): Int = {
    val f = new Frontier(g, s)
    while (!f.isEmpty) if (f.step() == t) return f.dist(t)
    Inf
  }
}

/** Bidirectional Dijkstra [11] — the paper's index-free baseline and the
  * query algorithm available immediately after U-Stage 1 (on-spot edge
  * update) in MHL/PMHL/PostMHL.
  */
object BiDijkstra {
  import Dijkstra.Inf

  /** Point-to-point distance: steps whichever search has the smaller head,
    * meets the other search at each settled vertex, and stops when
    * headF + headB ≥ the best meeting distance (the standard bound for the
    * alternate-smaller-frontier strategy).
    */
  def query(g: RoadGraph, s: Int, t: Int): Int = {
    val fw = new Frontier(g, s); val bw = new Frontier(g, t)
    var best = Inf
    while (!fw.isEmpty && !bw.isEmpty && fw.head.toLong + bw.head < best) {
      val f = if (fw.head <= bw.head) fw else bw
      val o = if (f eq fw) bw else fw
      val u = f.step()
      if (u >= 0 && o.dist(u) < Inf && f.dist(u) + o.dist(u) < best) best = f.dist(u) + o.dist(u)
    }
    best
  }
}
