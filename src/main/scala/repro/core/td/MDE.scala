package repro.core.td

import scala.collection.mutable

/** Minimum Degree Elimination [53], [54] — builds the tree decomposition
  * (and, per Lemma 4, the CH shortcut index) of a weighted graph.
  *
  * Supports the boundary-first vertex orderings the paper's PSP indexes
  * need (§IV-B): vertices in `forcedLast` are eliminated strictly after
  * all others, either by min-degree among themselves or in an externally
  * fixed order (`forcedRank`) so partition boundary orders can be made
  * consistent with the overlay order (Figure 5, condition 2).
  */
object MDE {
  import TD.Inf

  private val ForcedOffset = 1 << 26
  /** Bags must stay below this size: slot indices are packed in 16 bits. */
  private val MaxBag = 1 << 16

  private def pairKey(a: Int, b: Int): Long =
    if (a < b) (a.toLong << 32) | b.toLong else (b.toLong << 32) | a.toLong

  /** Deduplicate undirected edges keeping the min weight. */
  private def inputMap(edges: Iterable[(Int, Int, Int)]): mutable.LongMap[Int] = {
    val m = new mutable.LongMap[Int]()
    edges.foreach { case (u, v, w) =>
      require(u != v, "self loop")
      val k = pairKey(u, v)
      if (!m.contains(k) || w < m(k)) m(k) = w
    }
    m
  }

  /** Min-degree elimination of the vertices `elim` marks, in ascending
    * `prio(v, degree)` (ties by id, stale heap entries skipped lazily):
    * each pick calls `visit(v, nbrs)` with v's current neighbours and
    * shortcut weights, adds the fill-in shortcuts among them and removes v.
    * Returns the adjacency left among the vertices not eliminated.
    */
  private def eliminate(n: Int, input: mutable.LongMap[Int], elim: Int => Boolean,
                        prio: (Int, Int) => Int)
                       (visit: (Int, Array[(Int, Int)]) => Unit): Array[mutable.HashMap[Int, Int]] = {
    val adj = Array.fill(n)(new mutable.HashMap[Int, Int]())
    input.foreach { case (k, w) =>
      val u = (k >>> 32).toInt; val v = (k & 0xffffffffL).toInt
      adj(u)(v) = w; adj(v)(u) = w
    }
    def key(v: Int): Long = (prio(v, adj(v).size).toLong << 32) | v.toLong
    val pq = new java.util.PriorityQueue[java.lang.Long]()
    val done = new Array[Boolean](n)
    var total = 0
    var v0 = 0
    while (v0 < n) { if (elim(v0)) { pq.add(key(v0)); total += 1 }; v0 += 1 }

    var r = 0
    while (r < total) {
      var v = -1
      while (v == -1) {
        val top = pq.poll().longValue()
        val cand = (top & 0xffffffffL).toInt
        if (!done(cand) && top == key(cand)) v = cand
      }
      done(v) = true
      val nbrs = adj(v).toArray
      visit(v, nbrs)
      // All-pair shortcuts among the bag.
      var i = 0
      while (i < nbrs.length) {
        val (a, wa) = nbrs(i)
        var j = i + 1
        while (j < nbrs.length) {
          val (b, wb) = nbrs(j)
          val ns = wa + wb
          if (ns < adj(a).getOrElse(b, Inf)) { adj(a)(b) = ns; adj(b)(a) = ns }
          j += 1
        }
        i += 1
      }
      // Remove v; refresh neighbor priorities lazily.
      i = 0
      while (i < nbrs.length) {
        val a = nbrs(i)._1
        adj(a).remove(v)
        if (elim(a)) pq.add(key(a))
        i += 1
      }
      adj(v).clear()
      r += 1
    }
    adj
  }

  /** Full decomposition of the graph (n vertices, undirected weighted edges).
    *
    * @param forcedLast  null, or flags of vertices eliminated after all others
    * @param forcedRank  null, or a fixed relative order for the forcedLast set
    *                    (smaller rank eliminated first); ignored for others
    */
  def decompose(n: Int, edges: Iterable[(Int, Int, Int)],
                forcedLast: Array[Boolean] = null,
                forcedRank: Array[Int] = null): TD = {
    val input = inputMap(edges)
    val forced = if (forcedLast != null) forcedLast else new Array[Boolean](n)
    val rank = new Array[Int](n)
    val order = new Array[Int](n)
    val rawBag = new Array[Array[Int]](n)
    val rawSc = new Array[Array[Int]](n)
    var r = 0
    eliminate(n, input, _ => true, (v, deg) =>
      if (!forced(v)) deg
      else ForcedOffset + (if (forcedRank != null) forcedRank(v) else deg)) { (v, nbrs) =>
      rank(v) = r; order(r) = v
      rawBag(v) = nbrs.map(_._1)
      rawSc(v) = nbrs.map(_._2)
      r += 1
    }

    // Sort bags by rank descending (parent = last), build base.
    val bag = new Array[Array[Int]](n)
    val sc = new Array[Array[Int]](n)
    val base = new Array[Array[Int]](n)
    val parent = Array.fill(n)(-1)
    var v = 0
    while (v < n) {
      require(rawBag(v).length < MaxBag,
        s"bag of vertex $v has ${rawBag(v).length} members; slot indices allow at most ${MaxBag - 1}")
      val idx = rawBag(v).indices.toArray.sortBy(i => -rank(rawBag(v)(i)))
      bag(v) = idx.map(rawBag(v))
      sc(v) = idx.map(rawSc(v))
      base(v) = bag(v).map { x =>
        val k = pairKey(v, x)
        if (input.contains(k)) input(k) else Inf
      }
      if (bag(v).nonEmpty) parent(v) = bag(v).last
      v += 1
    }
    val (sup, supSlots, pairRefs) = triangles(n, order, bag)

    val childBuf = Array.fill(n)(new mutable.ArrayBuffer[Int](2))
    v = 0
    while (v < n) { if (parent(v) != -1) childBuf(parent(v)) += v; v += 1 }
    val children = childBuf.map(_.toArray)
    val roots = (0 until n).filter(parent(_) == -1).toArray

    // Depth via top-down order (parents have higher rank, so walk order desc).
    val depth = new Array[Int](n)
    var ri = n - 1
    while (ri >= 0) {
      val u = order(ri)
      depth(u) = if (parent(u) == -1) 0 else depth(parent(u)) + 1
      ri -= 1
    }

    new TD(n, rank, order, parent, children, depth, bag, sc, base, sup, supSlots, pairRefs, roots)
  }

  /** The shortcut triangles of the final bags: vertex w supports the pair
    * (bag(w)(pa), bag(w)(pb)) for every pa < pb, and the pair's slot lives in
    * the bag of its lower-rank endpoint bag(w)(pb). Returns `TD.supporters`
    * (each list in ascending rank), `TD.supSlots` and `TD.pairRefs`.
    *
    * Owners are visited one at a time: a position scratch array maps each
    * member of the owner's bag to its slot, and a reverse-bag CSR lists the
    * vertices whose bags hold the owner, so each triangle costs O(1).
    */
  private def triangles(n: Int, order: Array[Int], bag: Array[Array[Int]])
      : (Array[Array[Array[Int]]], Array[Array[Array[Int]]], Array[Array[Long]]) = {
    // Reverse bags: revW(off(o) until off(o + 1)) are the w with o in bag(w),
    // ascending in rank, and revPos the position of o in each bag(w).
    val off = new Array[Int](n + 1)
    var v = 0
    while (v < n) { bag(v).foreach(x => off(x + 1) += 1); v += 1 }
    v = 0
    while (v < n) { off(v + 1) += off(v); v += 1 }
    val revW = new Array[Int](off(n))
    val revPos = new Array[Int](off(n))
    val fill = off.clone()
    var r = 0
    while (r < n) {
      val w = order(r); val bw = bag(w)
      var p = 0
      while (p < bw.length) {
        val o = bw(p)
        revW(fill(o)) = w; revPos(fill(o)) = p; fill(o) += 1
        p += 1
      }
      r += 1
    }

    val sup = new Array[Array[Array[Int]]](n)
    val supSlots = new Array[Array[Array[Int]]](n)
    val pairRefs = Array.tabulate(n) { w =>
      val d = bag(w).length
      if (d < 2) Array.emptyLongArray else new Array[Long](TD.pairIndex(d - 2, d - 1) + 1)
    }
    val pos = Array.fill(n)(-1)
    var o = 0
    while (o < n) {
      val bo = bag(o)
      var i = 0
      while (i < bo.length) { pos(bo(i)) = i; i += 1 }
      // Pass 1 counts each slot's supporters, pass 2 fills the lists.
      val count = new Array[Int](bo.length)
      var k = off(o)
      while (k < off(o + 1)) {
        val bw = bag(revW(k))
        var pa = 0
        while (pa < revPos(k)) {
          val s = pos(bw(pa))
          require(s >= 0, s"pair ($o,${bw(pa)}) has no slot")
          count(s) += 1
          pa += 1
        }
        k += 1
      }
      val so = count.map(c => if (c == 0) Array.emptyIntArray else new Array[Int](c))
      val po = count.map(c => if (c == 0) Array.emptyIntArray else new Array[Int](c))
      java.util.Arrays.fill(count, 0)
      k = off(o)
      while (k < off(o + 1)) {
        val w = revW(k); val bw = bag(w); val pb = revPos(k); val refs = pairRefs(w)
        var pa = 0
        while (pa < pb) {
          val s = pos(bw(pa)); val j = count(s)
          so(s)(j) = w
          po(s)(j) = (pb << 16) | pa
          refs(TD.pairIndex(pa, pb)) = (s.toLong << 32) | j.toLong
          count(s) = j + 1
          pa += 1
        }
        k += 1
      }
      sup(o) = so; supSlots(o) = po
      i = 0
      while (i < bo.length) { pos(bo(i)) = -1; i += 1 }
      o += 1
    }
    (sup, supSlots, pairRefs)
  }

  /** Phase-1 contraction: eliminate only the `contract`-marked vertices by
    * min-degree and return the remaining graph among unmarked vertices —
    * exactly the Theorem-2 overlay input (boundary shortcuts formed by the
    * MDE of Step 1, without touching the boundary order).
    */
  def phase1(n: Int, edges: Iterable[(Int, Int, Int)],
             contract: Array[Boolean]): Seq[(Int, Int, Int)] = {
    val adj = eliminate(n, inputMap(edges), contract(_), (_, deg) => deg)((_, _) => ())
    val out = new mutable.ArrayBuffer[(Int, Int, Int)]()
    var u = 0
    while (u < n) {
      if (!contract(u)) adj(u).foreach { case (x, w) => if (u < x && w < Inf) out += ((u, x, w)) }
      u += 1
    }
    out.toSeq
  }
}
