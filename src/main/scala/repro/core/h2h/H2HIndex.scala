package repro.core.h2h

import repro.core.td.TD
import repro.util.Parallel
import java.util.concurrent.atomic.AtomicIntegerArray
import scala.collection.mutable

/** H2H distance labels [22] over an [[UpwardGraph]]: a [[TD]], or PMHL's
  * cross-boundary tree T* or post-boundary forest.
  *
  * `dis(v)(j)` = distance from `v` to its ancestor at depth `j`
  * (`dis(v)(depth(v)) == 0` for `v` itself). Position arrays are implicit:
  * a bag member's position is its depth, since every bag member is an
  * ancestor. Built top-down; maintained top-down as in DH2H [33]: labels
  * can only change inside the subtrees of vertices whose shortcut arrays
  * changed, so [[updateSubtrees]] walks those subtrees from their highest
  * affected roots and reports which rows moved (downstream PSP stages read
  * it). Few affected vertices against many rows under them take the entry
  * pass, which recomputes only the entries a changed shortcut or a changed
  * entry above can reach; otherwise the subtree pass recomputes every row.
  * It is the one label update after a shortcut sweep; a `descend` filter
  * keeps either pass out of some subtrees (PostMHL's partitions, PMHL's
  * non-boundary rows of T*).
  *
  * The full-row pass [[relabel]], which takes the same filter, builds the
  * labels and relabels PMHL's `L*` rows from a partition's attach roots.
  * On p > 1 threads it computes the rows in p column blocks: the
  * recurrence reads only ancestors' rows, so the columns of one row are
  * independent once the rows above exist. Task b fills its block of every
  * row in walk order and waits only for the lower blocks of the path row
  * at the last depth its block reads ([[ColumnBlocks]]).
  * The recurrence ([[relax]] over a depth range, [[relaxAt]] over a list
  * of depths) and the subtree [[walk]] also serve PostMHL's post- and
  * cross-boundary passes, whose index parts are depth sets of one label
  * array.
  */
final class H2HIndex(val td: UpwardGraph) {
  import TD.Inf

  /** Distance labels; null until `build()`. */
  val dis: Array[Array[Int]] = new Array[Array[Int]](td.n)

  /** Total label entries (the paper's |L| for hop-based indexes). */
  def labelEntries: Long = {
    var s = 0L; var v = 0
    while (v < td.n) { if (dis(v) != null) s += dis(v).length; v += 1 }
    s
  }

  /** The H2H recurrence over depths [lo, hi): `arr(j)` becomes the minimum
    * over v's bag members of their [[H2HIndex.relaxMember]] terms.
    */
  private[core] def relax(v: Int, pathDis: Array[Array[Int]], lo: Int, hi: Int,
                          arr: Array[Int]): Unit = {
    java.util.Arrays.fill(arr, lo, hi, Inf)
    val bg = td.bag(v); val sv = td.sc(v)
    var i = 0
    while (i < bg.length) { H2HIndex.relaxMember(sv(i), td.depth(bg(i)), pathDis, lo, hi, arr); i += 1 }
  }

  /** The H2H recurrence at the listed `depths` only (ascending, each below
    * v's depth): `arr(j)` becomes the same minimum as in [[relax]], for j in
    * `depths`; other entries are left alone. A member deeper than every
    * listed depth contributes a gather from its one row.
    */
  private[core] def relaxAt(v: Int, pathDis: Array[Array[Int]], depths: Array[Int],
                            arr: Array[Int]): Unit = {
    var p = 0
    while (p < depths.length) { arr(depths(p)) = Inf; p += 1 }
    val bg = td.bag(v); val sv = td.sc(v)
    var i = 0
    while (i < bg.length) {
      val sc = sv(i); val dx = td.depth(bg(i)); val disx = pathDis(dx)
      var above = depths.length
      if (above > 0 && depths(above - 1) >= dx) { above = 0; while (depths(above) < dx) above += 1 }
      p = 0
      while (p < above) { val j = depths(p); val cand = sc + disx(j); if (cand < arr(j)) arr(j) = cand; p += 1 }
      if (p < depths.length && depths(p) == dx) { if (sc < arr(dx)) arr(dx) = sc; p += 1 }
      while (p < depths.length) {
        val j = depths(p); val cand = sc + pathDis(j)(dx); if (cand < arr(j)) arr(j) = cand; p += 1
      }
      i += 1
    }
  }

  /** The label of `v` from its bag's shortcuts and `pathDis(j)`, the label
    * of v's ancestor at depth j (only ancestors are read).
    */
  private[core] def computeDis(v: Int, pathDis: Array[Array[Int]]): Array[Int] = {
    val arr = new Array[Int](td.depth(v) + 1)
    relax(v, pathDis, 0, td.depth(v), arr)
    arr
  }

  /** Visits `top`'s subtree parents first, entering only children for
    * which `descend` holds: the walk order of every label pass.
    */
  private def preorder(top: Int, descend: Int => Boolean)(visit: Int => Unit): Unit = {
    var stack = Array(top); var size = 1
    while (size > 0) {
      size -= 1
      val v = stack(size)
      visit(v)
      val ch = td.children(v)
      if (size + ch.length > stack.length) stack = java.util.Arrays.copyOf(stack, 2 * (size + ch.length))
      var i = 0
      while (i < ch.length) { if (descend(ch(i))) { stack(size) = ch(i); size += 1 }; i += 1 }
    }
  }

  /** Fills `pathDis` above `top` from the current labels. */
  private def pathAbove(top: Int, pathDis: Array[Array[Int]]): Unit = {
    var x = td.parent(top)
    while (x != -1) { pathDis(td.depth(x)) = dis(x); x = td.parent(x) }
  }

  /** Top-down walk of `top`'s subtree, entering only children for which
    * `descend` holds: each visited `v` gets `dis(v) = label(v)`, which is
    * then `pathDis(depth(v))` for its descendants. The path above `top` is
    * filled from the current labels.
    */
  private[core] def walk(top: Int, pathDis: Array[Array[Int]], descend: Int => Boolean)
                        (label: Int => Array[Int]): Unit = {
    pathAbove(top, pathDis)
    preorder(top, descend) { v =>
      val row = label(v)
      dis(v) = row
      pathDis(td.depth(v)) = row
    }
  }

  /** Full top-down construction. */
  def build(): Unit = relabel(td.roots)

  /** Full-row label pass: a [[walk]] of each of `tops`' subtrees, entering
    * only children for which `descend` holds, that gives every visited
    * vertex a fresh row from [[computeDis]]. Returns the vertices whose row
    * changed, in walk order.
    *
    * With `threads` = p > 1 up to p tasks compute the rows in column blocks
    * ([[ColumnBlocks]]), with the same rows and the same result. At p = 1,
    * or when the visited rows have too few columns for two blocks, it is
    * one block: the walk, each row published as it is computed. It is
    * also the walk when a top lies under a row visited from an earlier top,
    * which the column blocks would read before it is published.
    */
  def relabel(tops: Array[Int], descend: Int => Boolean = _ => true, threads: Int = 1): Array[Int] = {
    val blocks = if (threads > 1) columnBlocks(tops, descend, threads) else null
    if (blocks != null) return blocks.run()
    val changed = new mutable.ArrayBuilder.ofInt
    val pathDis = new Array[Array[Int]](td.height)
    tops.foreach(walk(_, pathDis, descend) { v =>
      val arr = computeDis(v, pathDis)
      if (!java.util.Arrays.equals(arr, dis(v))) changed += v
      arr
    })
    changed.result()
  }

  /** The [[ColumnBlocks]] pass of [[relabel]] with at most `p` blocks, or
    * null if the walk is one block or revisits a row. The cuts balance the
    * blocks' work, Σ|bag(v)| over the visited rows v having each column
    * (the columns of v are the depths of its proper ancestors).
    */
  private[core] def columnBlocks(tops: Array[Int], descend: Int => Boolean, p: Int): ColumnBlocks = {
    val visited = new java.util.BitSet(td.n)
    val order = new mutable.ArrayBuilder.ofInt
    val topStart = new Array[Int](tops.length + 1)
    /** Σ|bag| of the visited rows at each depth. */
    val bagAt = new Array[Long](td.height)
    var count = 0; var deepest = 0; var revisit = false
    var t = 0
    while (t < tops.length) {
      var x = td.parent(tops(t))
      while (x != -1) { if (visited.get(x)) return null; x = td.parent(x) }
      topStart(t) = count
      preorder(tops(t), descend) { v =>
        if (visited.get(v)) revisit = true
        visited.set(v); order += v; count += 1
        val dv = td.depth(v)
        bagAt(dv) += td.bag(v).length
        if (dv > deepest) deepest = dv
      }
      if (revisit) return null
      t += 1
    }
    topStart(tops.length) = count
    // cost(j) = Σ over the depths d > j of bagAt(d), for the columns j < deepest.
    val cost = new Array[Long](deepest)
    var total = 0L; var suffix = 0L
    var j = deepest - 1
    while (j >= 0) { suffix += bagAt(j + 1); cost(j) = suffix; total += suffix; j -= 1 }
    val cuts = new mutable.ArrayBuilder.ofInt
    cuts += 0
    var acc = 0L; var b = 1
    j = 0
    while (j < deepest - 1 && b < p) {
      acc += cost(j)
      if (acc * p >= b * total) { cuts += j + 1; b += 1 }
      j += 1
    }
    cuts += deepest
    val c = cuts.result()
    if (c.length < 3) null else new ColumnBlocks(order.result(), tops, topStart, c)
  }

  /** The column-block form of [[relabel]]: `order` is the walk's rows in
    * walk order, the walk of `tops(t)` starting at `topStart(t)`, and task
    * b of p = `cuts.length - 1` computes columns [cuts(b), cuts(b + 1)) of
    * every row, in walk order, into rows allocated up front.
    *
    * Entry (v, j) reads column j of v's deeper bag members, which task b
    * wrote itself earlier in the walk, and columns below j of the path row
    * at depth j. So before row v at depth dv, task b waits until every
    * lower task has finished the path row at depth min(dv, cuts(b + 1)) − 1,
    * the last in walk order of the path rows it reads; a row above a top is
    * a published label and needs no wait. Each task counts the rows it has
    * finished (a release store) and keeps the walk position of each path
    * depth; there is no barrier per row. A wait spins, then yields, since a
    * vCPU can be descheduled, and gives up once any task has failed, so a
    * failure ends the call. The rows go into `dis` only after every task
    * has finished: a reader never sees a partial row.
    */
  private[core] final class ColumnBlocks(order: Array[Int], tops: Array[Int], topStart: Array[Int],
                                         val cuts: Array[Int]) {
    private val p = cuts.length - 1
    private val rows = order.map(v => new Array[Int](td.depth(v) + 1))
    /** `moved(i)`: some block of row i differs from the published row. */
    private val moved = new Array[Boolean](order.length)
    /** Rows finished by task b, at `b * Pad`. */
    private val done = new AtomicIntegerArray(p * H2HIndex.Pad)
    @volatile private var failed = false

    def run(): Array[Int] = {
      Parallel.run((0 until p).map(b => () => block(b)), p)
      val changed = new mutable.ArrayBuilder.ofInt
      var i = 0
      while (i < order.length) {
        val v = order(i)
        if (moved(i) || dis(v) == null) changed += v
        dis(v) = rows(i)
        i += 1
      }
      changed.result()
    }

    private def block(b: Int): Unit =
      try fill(b) catch { case e: Throwable => failed = true; throw e }

    private def fill(b: Int): Unit = {
      val lo = cuts(b); val hi = cuts(b + 1)
      val pathDis = new Array[Array[Int]](td.height)
      /** Walk position of the path row at each depth; -1 above the top. */
      val pathPos = new Array[Int](td.height)
      /** The last count read from each lower task. */
      val seen = new Array[Int](b)
      var t = 0; var i = 0
      while (i < order.length) {
        if (failed) throw new Parallel.Abandoned
        if (i == topStart(t)) {
          pathAbove(tops(t), pathDis)
          java.util.Arrays.fill(pathPos, 0, td.depth(tops(t)), -1)
          t += 1
        }
        val v = order(i); val dv = td.depth(v); val row = rows(i)
        if (dv > lo) {
          val e = math.min(dv, hi)
          val need = pathPos(e - 1)
          if (b > 0 && need >= 0) await(b, need, seen)
          relax(v, pathDis, lo, e, row)
          val old = dis(v)
          if (old == null || !java.util.Arrays.equals(row, lo, e, old, lo, e)) moved(i) = true
        }
        pathDis(dv) = row; pathPos(dv) = i
        done.lazySet(b * H2HIndex.Pad, i + 1)
        i += 1
      }
    }

    /** Waits until every task below b has finished the row at walk
      * position `pos`.
      */
    private def await(b: Int, pos: Int, seen: Array[Int]): Unit = {
      var c = 0
      while (c < b) {
        var spins = 0
        while (seen(c) <= pos && { seen(c) = done.get(c * H2HIndex.Pad); seen(c) <= pos }) {
          if (failed) throw new Parallel.Abandoned
          if (spins < H2HIndex.Spins) { Thread.onSpinWait(); spins += 1 } else Thread.`yield`()
        }
        c += 1
      }
    }
  }

  /** DH2H top-down maintenance [33] after the shortcut arrays of the
    * `affected` vertices changed: recomputes labels under their
    * [[UpwardGraph.subtreeTops]], entering only children for which
    * `descend` holds, and returns the vertices whose labels changed, in
    * walk order. The entry pass runs when `affected` is less than
    * [[H2HIndex.EntryShare]] of the rows the walk enters, the subtree pass
    * otherwise; both give the same labels and the same result. Neither
    * writes into a row array that was published before the call. The
    * subtree pass is [[relabel]] on `threads`; the entry pass is serial.
    */
  def updateSubtrees(affected: Array[Int], descend: Int => Boolean = _ => true,
                     threads: Int = 1): Array[Int] =
    updateSubtrees(affected, descend, H2HIndex.Auto, threads)

  /** [[updateSubtrees]] with the pass chosen by `pass` (tests force one). */
  private[core] def updateSubtrees(affected: Array[Int], pass: H2HIndex.Pass): Array[Int] =
    updateSubtrees(affected, _ => true, pass, 1)

  private[core] def updateSubtrees(affected: Array[Int], descend: Int => Boolean,
                                   pass: H2HIndex.Pass): Array[Int] =
    updateSubtrees(affected, descend, pass, 1)

  private[core] def updateSubtrees(affected: Array[Int], descend: Int => Boolean,
                                   pass: H2HIndex.Pass, threads: Int): Array[Int] = {
    val tops = td.subtreeTops(affected)
    val entry = pass match {
      case H2HIndex.Entry => true
      case H2HIndex.Subtree => false
      case H2HIndex.Auto => entryPays(affected.length, tops, descend)
    }
    if (!entry) return relabel(tops, descend, threads)
    val changed = new mutable.ArrayBuilder.ofInt
    val ep = new EntryPass(affected, descend, new Array[Array[Int]](td.height), changed)
    tops.foreach(ep.run)
    changed.result()
  }

  /** The `Auto` rule: are `affected` vertices less than
    * [[H2HIndex.EntryShare]] of the rows a [[walk]] of `tops`' subtrees
    * under `descend` enters? Counts those rows until they are.
    */
  private def entryPays(affected: Int, tops: Array[Int], descend: Int => Boolean): Boolean = {
    var rows = 0L
    var stack = new Array[Int](64)
    for (top <- tops) {
      stack(0) = top; var size = 1
      while (size > 0) {
        size -= 1
        rows += 1
        if (affected < H2HIndex.EntryShare * rows) return true
        val ch = td.children(stack(size))
        if (size + ch.length > stack.length) stack = java.util.Arrays.copyOf(stack, 2 * (size + ch.length))
        var i = 0
        while (i < ch.length) { if (descend(ch(i))) { stack(size) = ch(i); size += 1 }; i += 1 }
      }
    }
    false
  }

  /** The entry pass of [[updateSubtrees]]: a top-down [[walk]] under
    * `descend` that recomputes entry (v, j) only if
    *  - v is affected (then the whole row), or
    *  - `dis(x)(j)` changed for a bag member x deeper than j, or
    *  - `dis(a_j)(depth x)` changed for a bag member x above j,
    * since no other entry the recurrence reads can have moved.
    *
    * For each depth d on the current path, `cols` holds the columns at
    * which the row at d changed, and `rows` is its transpose: for each
    * column j, the deeper path depths whose row changed at j. A depth's bits
    * are cleared when the walk enters it again, and the depths above a top
    * when its walk starts. A row without candidates keeps its array. A
    * dense row (at least a quarter candidates) is recomputed by [[relax]]
    * into a fresh array and diffed; a sparse one recomputes only its
    * candidate columns and copies the row when the first entry moves.
    * Either keeps the old array if nothing changed.
    */
  private final class EntryPass(affected: Array[Int], descend: Int => Boolean,
                                pathDis: Array[Array[Int]], changed: mutable.ArrayBuilder.ofInt) {
    private val words = (td.height + 63) >>> 6
    private val isAffected = new Array[Boolean](td.n)
    affected.foreach(isAffected(_) = true)
    /** `cols(d * words + w)`: word w of the columns (< d) that changed at depth d. */
    private val cols = new Array[Long](td.height * words)
    /** `rows(j * words + w)`: word w of the depths (> j) whose row changed at column j. */
    private val rows = new Array[Long](td.height * words)
    private val cand = new Array[Long](words)

    def run(top: Int): Unit = {
      var d = 0
      while (d < td.depth(top)) { clearDepth(d); d += 1 }
      walk(top, pathDis, descend)(label)
    }

    private def clearDepth(d: Int): Unit = {
      val at = d * words
      var w = 0
      while (w < words) {
        var bits = cols(at + w)
        while (bits != 0L) {
          val j = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
          rows(j * words + (d >>> 6)) &= ~(1L << d)
          bits &= bits - 1
        }
        cols(at + w) = 0L
        w += 1
      }
    }

    private def mark(d: Int, j: Int): Unit = {
      cols(d * words + (j >>> 6)) |= 1L << j
      rows(j * words + (d >>> 6)) |= 1L << d
    }

    private def label(v: Int): Array[Int] = {
      val dv = td.depth(v)
      clearDepth(dv)
      val old = dis(v)
      if (isAffected(v)) return dense(v, dv, old)
      // Candidates: the changed columns of deeper members, and the path
      // depths below shallower members whose row changed at their depth.
      val nw = (dv + 63) >>> 6
      java.util.Arrays.fill(cand, 0, nw, 0L)
      val bg = td.bag(v)
      var i = 0
      while (i < bg.length) {
        val at = td.depth(bg(i)) * words
        var w = 0
        while (w < nw) { cand(w) |= cols(at + w) | rows(at + w); w += 1 }
        i += 1
      }
      if ((dv & 63) != 0) cand(nw - 1) &= (1L << dv) - 1
      var count = 0
      var w = 0
      while (w < nw) { count += java.lang.Long.bitCount(cand(w)); w += 1 }
      if (count == 0) old
      else if (4 * count >= dv) dense(v, dv, old)
      else sparse(v, dv, nw, old)
    }

    private def dense(v: Int, dv: Int, old: Array[Int]): Array[Int] = {
      val arr = computeDis(v, pathDis)
      var moved = false
      var j = 0
      while (j < dv) {
        if (arr(j) != old(j)) { mark(dv, j); moved = true }
        j += 1
      }
      if (moved) { changed += v; arr } else old
    }

    /** Recomputes the candidate columns one by one, each as the minimum of
      * its [[H2HIndex.relaxMember]] terms over v's bag. Runs of candidate
      * columns are short (4–5 on FLA-lite), so calling [[relax]] per run
      * measured slower.
      */
    private def sparse(v: Int, dv: Int, nw: Int, old: Array[Int]): Array[Int] = {
      var arr: Array[Int] = null
      val bg = td.bag(v); val sv = td.sc(v)
      var w = 0
      while (w < nw) {
        var bits = cand(w)
        while (bits != 0L) {
          val j = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
          bits &= bits - 1
          var m = Inf; var i = 0
          while (i < bg.length) {
            val dx = td.depth(bg(i))
            val c = sv(i) + (if (dx > j) pathDis(dx)(j) else if (dx < j) pathDis(j)(dx) else 0)
            if (c < m) m = c
            i += 1
          }
          if (m != old(j)) {
            if (arr == null) arr = old.clone()
            arr(j) = m; mark(dv, j)
          }
        }
        w += 1
      }
      if (arr == null) old else { changed += v; arr }
    }
  }

  /** H2H distance query via LCA separator; `Inf` if disconnected. */
  def query(s: Int, t: Int): Int = {
    if (s == t) return 0
    val a = td.lca(s, t)
    if (a == -1) return Inf
    if (a == s) return dis(t)(td.depth(s))
    if (a == t) return dis(s)(td.depth(t))
    val ds = dis(s); val dt = dis(t)
    val da = td.depth(a)
    var best = ds(da) + dt(da)
    val bg = td.bag(a)
    var i = 0
    while (i < bg.length) {
      val dx = td.depth(bg(i))
      val cand = ds(dx) + dt(dx)
      if (cand < best) best = cand
      i += 1
    }
    best
  }
}

object H2HIndex {

  /** Which pass [[H2HIndex.updateSubtrees]] runs. */
  private[core] sealed trait Pass
  private[core] case object Auto extends Pass
  private[core] case object Entry extends Pass
  private[core] case object Subtree extends Pass

  /** The entry pass runs when |affected| < EntryShare × (rows under the
    * tops). A |U| sweep (recorded in CHANGES.md) found the entry pass
    * faster below a share of about 0.05 on EC-lite and about 0.10 on
    * FLA-lite, and slower above.
    */
  private[core] val EntryShare = 0.07

  /** Stride of the column-block tasks' row counts, in ints: one 64-byte
    * cache line each.
    */
  private val Pad = 16

  /** Spins of a column-block wait before it yields its thread. */
  private val Spins = 256

  /** One bag member's term of the H2H recurrence: for a member x at depth
    * `dx` with shortcut weight `sc`, lowers `arr(j)`, j in [lo, hi), to
    * `sc + dist(x, a_j)`, a_j being the ancestor at depth j whose label is
    * `pathDis(j)`: `pathDis(dx)(j)` above x, 0 at x, `pathDis(j)(dx)` below
    * (one loop per case, so no loop branches on j).
    */
  def relaxMember(sc: Int, dx: Int, pathDis: Array[Array[Int]], lo: Int, hi: Int,
                  arr: Array[Int]): Unit = {
    val disx = pathDis(dx)
    var j = lo
    val above = math.min(dx, hi)
    while (j < above) { val cand = sc + disx(j); if (cand < arr(j)) arr(j) = cand; j += 1 }
    if (j == dx && j < hi) { if (sc < arr(j)) arr(j) = sc; j += 1 }
    while (j < hi) { val cand = sc + pathDis(j)(dx); if (cand < arr(j)) arr(j) = cand; j += 1 }
  }
}
