package repro.core.h2h

import repro.core.td.TD

/** Upward shortcut graph for CH-style queries.
  *
  * Per vertex, one or more (targets, weights) segments whose arrays alias
  * the owning [[TD]]'s `bag`/`sc` arrays, so weight maintenance done by
  * `ShortcutUpdater` is visible here without copying. PMHL's PCH query
  * (N-CH-P [35]) unions the partition indexes' and the overlay index's
  * shortcut arrays by giving boundary vertices two segments.
  */
final class UpwardGraph(
    val n: Int,
    val rankOf: Array[Int],
    val nbrs: Array[Array[Array[Int]]],
    val wts: Array[Array[Array[Int]]],
)

object UpwardGraph {
  /** Plain CH view of a single TD. */
  def fromTD(td: TD): UpwardGraph =
    new UpwardGraph(
      td.n,
      td.rank,
      Array.tabulate(td.n)(v => Array(td.bag(v))),
      Array.tabulate(td.n)(v => Array(td.sc(v))),
    )
}

/** CH query [14]: bidirectional Dijkstra that only relaxes edges toward
  * higher-ranked vertices. This is the query procedure of DCH, of MHL's
  * Q-Stage 2, and (over the union upward graph) of PMHL/PostMHL's PCH
  * stage. Instances keep reusable scratch arrays — NOT thread-safe.
  */
final class CHQuery(g: UpwardGraph) {
  import TD.Inf

  private val dF = Array.fill(g.n)(Inf)
  private val dB = Array.fill(g.n)(Inf)
  private val verF = new Array[Int](g.n)
  private val verB = new Array[Int](g.n)
  private var epoch = 0

  /** Point-to-point upper-bound distance; exact when the upward graph is a
    * full contraction hierarchy of the underlying graph.
    */
  def query(s: Int, t: Int): Int = {
    if (s == t) return 0
    epoch += 1
    var best = Inf
    val pqF = new java.util.PriorityQueue[java.lang.Long]()
    val pqB = new java.util.PriorityQueue[java.lang.Long]()
    dF(s) = 0; verF(s) = epoch; pqF.add(s.toLong)
    dB(t) = 0; verB(t) = epoch; pqB.add(t.toLong)

    def settleUp(pq: java.util.PriorityQueue[java.lang.Long],
                 dist: Array[Int], ver: Array[Int],
                 othDist: Array[Int], othVer: Array[Int]): Unit = {
      val top = pq.poll().longValue()
      val d = (top >>> 32).toInt; val u = top.toInt
      if (ver(u) != epoch || d != dist(u)) return
      if (othVer(u) == epoch && d + othDist(u) < best) best = d + othDist(u)
      val segs = g.nbrs(u); val wsegs = g.wts(u)
      var si = 0
      while (si < segs.length) {
        val ns = segs(si); val ws = wsegs(si)
        var i = 0
        while (i < ns.length) {
          val v = ns(i)
          if (g.rankOf(v) > g.rankOf(u)) {
            val nd = d + ws(i)
            if (nd < (if (ver(v) == epoch) dist(v) else Inf)) {
              dist(v) = nd; ver(v) = epoch
              pq.add((nd.toLong << 32) | v.toLong)
            }
          }
          i += 1
        }
        si += 1
      }
    }

    var goF = true; var goB = true
    while (goF || goB) {
      goF = !pqF.isEmpty && (pqF.peek().longValue() >>> 32).toInt < best
      if (goF) settleUp(pqF, dF, verF, dB, verB)
      goB = !pqB.isEmpty && (pqB.peek().longValue() >>> 32).toInt < best
      if (goB) settleUp(pqB, dB, verB, dF, verF)
      goF = !pqF.isEmpty && (pqF.peek().longValue() >>> 32).toInt < best
      goB = !pqB.isEmpty && (pqB.peek().longValue() >>> 32).toInt < best
    }
    best
  }
}
