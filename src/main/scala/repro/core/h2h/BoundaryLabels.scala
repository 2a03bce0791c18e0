package repro.core.h2h

/** The boundary concatenation (§IV-A, §V-C) over the overlay index:
  * PMHL's no- and post-boundary queries and PostMHL's cross-partition
  * post-boundary query concatenate each side's distances to its boundary
  * hubs.
  */
object BoundaryLabels {

  /** Boundary concatenation: the minimum of `bound` and
    * `dS(p) + ov.query(bS(p), bT(q)) + dT(q)` over all p, q.
    */
  def concat(bS: Array[Int], dS: Array[Int], bT: Array[Int], dT: Array[Int],
             ov: H2HIndex, bound: Int): Int = {
    var best = bound
    var p = 0
    while (p < bS.length) {
      if (dS(p) < best) {
        var q = 0
        while (q < bT.length) {
          val cand = dS(p) + ov.query(bS(p), bT(q)) + dT(q)
          if (cand < best) best = cand
          q += 1
        }
      }
      p += 1
    }
    best
  }
}
