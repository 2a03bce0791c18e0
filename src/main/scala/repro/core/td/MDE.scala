package repro.core.td

import java.util.Arrays
import repro.util.LongHeap

/** Minimum Degree Elimination [53], [54] — builds the tree decomposition
  * (and, per Lemma 4, the CH shortcut index) of a weighted graph.
  *
  * Supports the boundary-first vertex orderings the paper's PSP indexes
  * need (§IV-B): vertices in `forcedLast` are eliminated strictly after
  * all others, either by min-degree among themselves or in an externally
  * fixed order (`forcedRank`) so partition boundary orders can be made
  * consistent with the overlay order (Figure 5, condition 2).
  *
  * An elimination runs in two parts on one [[Partial]] state: [[contract]]
  * eliminates the unforced vertices by min degree, and a finish eliminates
  * the rest (by min degree, or by `forcedRank` in [[resume]]) and builds
  * the TD. `decompose` is the two parts back to back; PMHL stops after the
  * first to read the overlay input off `Partial.remaining` and resumes once
  * the overlay order is known, so each partition is eliminated once.
  *
  * Nothing is hashed or boxed, as in the flat-array minimum-degree
  * orderings of George & Liu (SIAM Review 1989): the input is deduplicated
  * into per-vertex rows of (neighbour, min weight), elimination grows `Int`
  * rows beside a degree array and picks from a primitive lazy min-heap, and
  * a position scratch array stands in for every pair lookup. All scratch
  * belongs to one call, so PMHL's partitions decompose concurrently.
  */
object MDE {
  import TD.Inf

  /** Bags must stay below this size: slot indices are packed in 16 bits. */
  private val MaxBag = 1 << 16

  /** Adjacency rows: v's neighbours are `nbr(v)(0 until deg(v))`, with their
    * weights at the same positions of `wt(v)`. A full row doubles when
    * appended to; an edgeless vertex holds the shared empty array.
    */
  private final class Rows(val nbr: Array[Array[Int]], val wt: Array[Array[Int]], val deg: Array[Int]) {
    def append(a: Int, b: Int, w: Int): Unit = {
      val d = deg(a)
      if (d == nbr(a).length) {
        val cap = math.max(4, 2 * d)
        nbr(a) = Arrays.copyOf(nbr(a), cap); wt(a) = Arrays.copyOf(wt(a), cap)
      }
      nbr(a)(d) = b; wt(a)(d) = w; deg(a) = d + 1
    }

    def copy(): Rows = new Rows(trimmed(nbr), trimmed(wt), deg.clone())

    private def trimmed(rows: Array[Array[Int]]): Array[Array[Int]] =
      Array.tabulate(rows.length)(v => if (deg(v) == 0) Array.emptyIntArray else Arrays.copyOf(rows(v), deg(v)))
  }

  /** Deduplicate undirected edges into rows keeping the min weight: a
    * counting pass, a fill pass, and a dedupe pass over one position
    * scratch array.
    */
  private def inputRows(n: Int, edges: Iterable[(Int, Int, Int)]): Rows = {
    val deg = new Array[Int](n)
    edges.foreach { case (u, v, _) =>
      require(u != v, "self loop")
      deg(u) += 1; deg(v) += 1
    }
    def alloc(): Array[Array[Int]] =
      Array.tabulate(n)(v => if (deg(v) == 0) Array.emptyIntArray else new Array[Int](deg(v)))
    val nbr = alloc(); val wt = alloc()
    Arrays.fill(deg, 0)
    edges.foreach { case (u, v, w) =>
      nbr(u)(deg(u)) = v; wt(u)(deg(u)) = w; deg(u) += 1
      nbr(v)(deg(v)) = u; wt(v)(deg(v)) = w; deg(v) += 1
    }
    val pos = Array.fill(n)(-1)
    var v = 0
    while (v < n) {
      val nv = nbr(v); val wv = wt(v)
      var d = 0; var i = 0
      while (i < deg(v)) {
        val p = pos(nv(i))
        if (p < 0) { pos(nv(i)) = d; nv(d) = nv(i); wv(d) = wv(i); d += 1 }
        else if (wv(i) < wv(p)) wv(p) = wv(i)
        i += 1
      }
      deg(v) = d
      i = 0
      while (i < d) { pos(nv(i)) = -1; i += 1 }
      v += 1
    }
    new Rows(nbr, wt, deg)
  }

  /** Min-degree elimination of the vertices `elim` marks, in ascending
    * `prio(v, degree)` (ties by id, stale heap entries skipped lazily):
    * each pick calls `visit(v, nbrs, weights)` with v's current row, adds
    * the fill-in shortcuts among its members and removes v. `rows` is left
    * holding the adjacency among the vertices not eliminated.
    */
  private def eliminate(rows: Rows, elim: Array[Boolean], prio: (Int, Int) => Int)
                       (visit: (Int, Array[Int], Array[Int]) => Unit): Unit = {
    val nbr = rows.nbr; val wt = rows.wt; val deg = rows.deg
    val n = deg.length
    def key(v: Int): Long = (prio(v, deg(v)).toLong << 32) | v.toLong
    var total = 0
    var v0 = 0
    while (v0 < n) { if (elim(v0)) total += 1; v0 += 1 }
    if (total == 0) return
    val heap = new LongHeap(n)
    val done = new Array[Boolean](n)
    val slot = Array.fill(n)(-1)
    v0 = 0
    while (v0 < n) { if (elim(v0)) heap.push(key(v0)); v0 += 1 }

    var r = 0
    while (r < total) {
      var v = -1
      while (v == -1) {
        val top = heap.pop()
        val cand = (top & 0xffffffffL).toInt
        if (!done(cand) && top == key(cand)) v = cand
      }
      done(v) = true
      val d = deg(v)
      val vn = Arrays.copyOf(nbr(v), d); val vw = Arrays.copyOf(wt(v), d)
      nbr(v) = Array.emptyIntArray; wt(v) = Array.emptyIntArray; deg(v) = 0
      visit(v, vn, vw)
      // Per member a: mark a's row, swap-remove v, lower or append the
      // shortcut to every other member, unmark, and refresh a's key lazily.
      var i = 0
      while (i < d) {
        val a = vn(i); val wa = vw(i)
        var p = 0
        while (p < deg(a)) { slot(nbr(a)(p)) = p; p += 1 }
        val pv = slot(v); val last = deg(a) - 1
        nbr(a)(pv) = nbr(a)(last); wt(a)(pv) = wt(a)(last); slot(nbr(a)(pv)) = pv
        slot(v) = -1; deg(a) = last
        var j = 0
        while (j < d) {
          if (j != i) {
            val b = vn(j); val ns = wa + vw(j); val s = slot(b)
            if (s >= 0) { if (ns < wt(a)(s)) wt(a)(s) = ns }
            else if (ns < Inf) { slot(b) = deg(a); rows.append(a, b, ns) }
          }
          j += 1
        }
        p = 0
        while (p < deg(a)) { slot(nbr(a)(p)) = -1; p += 1 }
        if (elim(a)) heap.push(key(a))
        i += 1
      }
      r += 1
    }
  }

  /** An elimination stopped part-way, as [[contract]] leaves it: the input
    * rows (for `base`), the rows among the vertices left, and the ranks,
    * order and raw bags of the vertices eliminated so far. [[resume]]
    * eliminates the rest and finishes the TD; it may do so once.
    */
  final class Partial private[MDE] (val n: Int, private[MDE] val input: Rows, private[MDE] val rows: Rows) {
    private[MDE] val rank = new Array[Int](n)
    private[MDE] val order = new Array[Int](n)
    /** v's neighbours and shortcuts when it was eliminated; null while v is left. */
    private[MDE] val rawBag = new Array[Array[Int]](n)
    private[MDE] val rawSc = new Array[Array[Int]](n)
    private[MDE] var eliminated = 0
    private[MDE] var resumed = false

    /** Eliminate the `elim` vertices (none of them eliminated yet) in
      * ascending `prio(v, degree)`, recording each one's rank and raw bag.
      */
    private[MDE] def run(elim: Array[Boolean], prio: (Int, Int) => Int): Unit =
      eliminate(rows, elim, prio) { (v, nbrs, ws) =>
        rank(v) = eliminated; order(eliminated) = v
        rawBag(v) = nbrs; rawSc(v) = ws
        eliminated += 1
      }

    /** The graph among the vertices left: each undirected edge once, as
      * (u, x, w) with u < x and w < `Inf`, in ascending u.
      */
    def remaining: Seq[(Int, Int, Int)] = {
      require(!resumed, "the partial elimination was already resumed")
      val out = Vector.newBuilder[(Int, Int, Int)]
      var u = 0
      while (u < n) {
        if (rawBag(u) == null) {
          var i = 0
          while (i < rows.deg(u)) {
            val x = rows.nbr(u)(i); val w = rows.wt(u)(i)
            if (u < x && w < Inf) out += ((u, x, w))
            i += 1
          }
        }
        u += 1
      }
      out.result()
    }
  }

  /** Eliminate the `contract`-marked vertices of the graph (n vertices,
    * undirected weighted edges) by min degree and keep the state. Its
    * `remaining` graph is the Theorem-2 overlay input when the unmarked
    * vertices are a partition's boundary.
    */
  def contract(n: Int, edges: Iterable[(Int, Int, Int)], contract: Array[Boolean]): Partial = {
    require(contract.length == n, s"contract flags ${contract.length} vertices, not $n")
    val input = inputRows(n, edges)
    val p = new Partial(n, input, input.copy())
    p.run(contract, (_, deg) => deg)
    p
  }

  /** Eliminate the vertices `partial` left in ascending `forcedRank` (ties
    * by id) and finish the TD. The ranks of eliminated vertices are not read.
    */
  def resume(partial: Partial, forcedRank: Array[Int]): TD = {
    require(forcedRank.length == partial.n, s"forcedRank has ${forcedRank.length} entries, not ${partial.n}")
    finish(partial, (v, _) => forcedRank(v))
  }

  /** Full decomposition of the graph (n vertices, undirected weighted edges).
    *
    * @param forcedLast  null, or flags of vertices eliminated after all others
    * @param forcedRank  null, or a fixed relative order for the forcedLast set
    *                    (smaller rank eliminated first); ignored for others.
    *                    Needs `forcedLast`: without it nothing is forced.
    */
  def decompose(n: Int, edges: Iterable[(Int, Int, Int)],
                forcedLast: Array[Boolean] = null,
                forcedRank: Array[Int] = null): TD = {
    require(forcedRank == null || forcedLast != null, "forcedRank is given without forcedLast")
    val p = contract(n, edges, Array.tabulate(n)(v => forcedLast == null || !forcedLast(v)))
    if (forcedRank != null) resume(p, forcedRank) else finish(p, (_, deg) => deg)
  }

  /** Eliminate the vertices `p` left in ascending `prio(v, degree)`, then
    * build the TD from its ranks and raw bags.
    */
  private def finish(p: Partial, prio: (Int, Int) => Int): TD = {
    require(!p.resumed, "the partial elimination was already resumed")
    p.resumed = true
    val n = p.n
    p.run(Array.tabulate(n)(v => p.rawBag(v) == null), prio)
    val rank = p.rank; val order = p.order; val rawBag = p.rawBag; val rawSc = p.rawSc
    val input = p.input

    // Sort each bag by rank descending (parent = last) on packed
    // (n - 1 - rank, position) keys; read base off v's input row.
    val bag = new Array[Array[Int]](n)
    val sc = new Array[Array[Int]](n)
    val base = new Array[Array[Int]](n)
    val parent = Array.fill(n)(-1)
    val pos = Array.fill(n)(-1)
    var v = 0
    while (v < n) {
      val rb = rawBag(v); val d = rb.length
      require(d < MaxBag, s"bag of vertex $v has $d members; slot indices allow at most ${MaxBag - 1}")
      if (d == 0) {
        bag(v) = Array.emptyIntArray; sc(v) = Array.emptyIntArray; base(v) = Array.emptyIntArray
      } else {
        val keys = new Array[Long](d)
        var i = 0
        while (i < d) { keys(i) = ((n - 1 - rank(rb(i))).toLong << 32) | i; i += 1 }
        Arrays.sort(keys)
        val in = input.nbr(v); val inDeg = input.deg(v)
        i = 0
        while (i < inDeg) { pos(in(i)) = i; i += 1 }
        val bv = new Array[Int](d); val sv = new Array[Int](d); val basev = new Array[Int](d)
        i = 0
        while (i < d) {
          val k = keys(i).toInt
          bv(i) = rb(k); sv(i) = rawSc(v)(k)
          val p = pos(bv(i))
          basev(i) = if (p >= 0) input.wt(v)(p) else Inf
          i += 1
        }
        i = 0
        while (i < inDeg) { pos(in(i)) = -1; i += 1 }
        bag(v) = bv; sc(v) = sv; base(v) = basev
        parent(v) = bv(d - 1)
      }
      v += 1
    }
    val (sup, supSlots) = triangles(n, order, bag)

    // Depth via top-down order (parents have higher rank, so walk order desc).
    val depth = new Array[Int](n)
    var ri = n - 1
    while (ri >= 0) {
      val u = order(ri)
      depth(u) = if (parent(u) == -1) 0 else depth(parent(u)) + 1
      ri -= 1
    }

    new TD(rank, order, parent, depth, bag, sc, base, sup, supSlots)
  }

  /** The shortcut triangles of the final bags: vertex w supports the pair
    * (bag(w)(pa), bag(w)(pb)) for every pa < pb, and the pair's slot lives in
    * the bag of its lower-rank endpoint bag(w)(pb). Returns `TD.supporters`
    * (each list in ascending rank) and `TD.supSlots`.
    *
    * Owners are visited one at a time: a position scratch array maps each
    * member of the owner's bag to its slot, and a reverse-bag CSR lists the
    * vertices whose bags hold the owner, so each triangle costs O(1).
    */
  private def triangles(n: Int, order: Array[Int], bag: Array[Array[Int]])
      : (Array[Array[Array[Int]]], Array[Array[Array[Int]]]) = {
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
      Arrays.fill(count, 0)
      k = off(o)
      while (k < off(o + 1)) {
        val w = revW(k); val bw = bag(w); val pb = revPos(k)
        var pa = 0
        while (pa < pb) {
          val s = pos(bw(pa)); val j = count(s)
          so(s)(j) = w
          po(s)(j) = (pb << 16) | pa
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
    (sup, supSlots)
  }

  /** Phase-1 contraction: the graph left among the unmarked vertices once
    * the `contract`-marked ones are eliminated by min degree.
    */
  def phase1(n: Int, edges: Iterable[(Int, Int, Int)],
             contract: Array[Boolean]): Seq[(Int, Int, Int)] =
    MDE.contract(n, edges, contract).remaining
}
