package repro.core.h2h

import repro.core.td.TD.Inf

/** Post-boundary kernels (§IV-A, §V-C, Algorithm 4). [[concat]], the
  * boundary concatenation over the overlay index, is shared by PMHL and
  * PostMHL; [[boundaryArray]], the boundary-array recurrence, and
  * [[slotTable]] serve PostMHL's post-boundary pass.
  *
  * Boundary bag members are recognised through a boundary-slot row aligned
  * with the bag: `slots(k)` is the index of `bag(k)` in its partition's
  * boundary list B_i, or -1 for a member outside B_i (see [[slotTable]]).
  */
object BoundaryLabels {

  /** Per-vertex boundary-slot rows: for each vertex `v` with `part(v) = i >= 0`,
    * `bagOf(v)` mapped to each member's index in `boundaries(i)` (or -1);
    * null for vertices with `part(v) = -1`.
    */
  def slotTable(n: Int, boundaries: Array[Array[Int]], part: Int => Int,
                bagOf: Int => Array[Int]): Array[Array[Int]] = {
    val members = Array.fill(boundaries.length)(Array.newBuilder[Int])
    var v = 0
    while (v < n) { val i = part(v); if (i >= 0) members(i) += v; v += 1 }
    val slots = new Array[Array[Int]](n)
    val pos = Array.fill(n)(-1)
    var i = 0
    while (i < boundaries.length) {
      val bs = boundaries(i)
      var j = 0
      while (j < bs.length) { pos(bs(j)) = j; j += 1 }
      members(i).result().foreach(v => slots(v) = bagOf(v).map(pos))
      bs.foreach(pos(_) = -1)
      i += 1
    }
    slots
  }

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

  /** The boundary array of a vertex with bag `bag`, shortcuts `sc` and
    * slot row `slots`: entry j is the minimum over members x of
    * `sc(x) + (x in B_i ? d(slot(x))(j) : disB(x)(j))`, where `d` is the
    * all-pair distance map of B_i (|B_i| rows) and `disB(x)` the boundary
    * array of a non-boundary member x, already computed.
    */
  def boundaryArray(bag: Array[Int], sc: Array[Int], slots: Array[Int],
                    d: Array[Array[Int]], disB: Array[Array[Int]]): Array[Int] = {
    val arr = new Array[Int](d.length)
    java.util.Arrays.fill(arr, Inf)
    var k = 0
    while (k < bag.length) {
      val scx = sc(k)
      val row = if (slots(k) >= 0) d(slots(k)) else disB(bag(k))
      var j = 0
      while (j < arr.length) {
        val cand = scx + row(j)
        if (cand < arr(j)) arr(j) = cand
        j += 1
      }
      k += 1
    }
    arr
  }
}
