package repro.core.td

import repro.core.h2h.UpwardGraph

/** Tree decomposition of a weighted graph produced by minimum-degree
  * elimination (MDE, Definition 1 / §II of the paper).
  *
  * Per vertex `v` (a tree node `X(v)`):
  *  - `bag(v)`    — `X(v).N`: neighbors of `v` in the contracted graph at
  *                  `v`'s elimination, sorted by rank DESCENDING, so the
  *                  parent (lowest-rank bag member) is the LAST element;
  *  - `sc(v)`     — `X(v).sc`: shortcut weights aligned with `bag(v)` (this
  *                  is exactly the CH shortcut index per Lemma 4);
  *  - `base(v)`   — input-edge weight of each (v, bag member) pair in the
  *                  decomposed graph, or `Inf` if the pair arose purely from
  *                  contraction (needed for dynamic maintenance);
  *  - `supporters(v)(i)` — vertices `w` eliminated before `v` with both `v`
  *                  and `bag(v)(i)` in `X(w)` — the pairs whose shortcut
  *                  `sc(w,v)+sc(w,bag(v)(i))` supports this slot (the DCH
  *                  "shortcut supporting graph" [32]), ascending in rank;
  *  - `supSlots(v)(i)(j)` — where the j-th supporter `w` of slot (v, i)
  *                  holds the two halves of its triangle, packed as
  *                  `slotOf(w, v) << 16 | slotOf(w, bag(v)(i))`, so its
  *                  contribution `sc(w)(hi) + sc(w)(lo)` is two array reads.
  *
  * These are the triangles of Customizable Contraction Hierarchies
  * (Dibbelt, Strasser, Wagner, ACM JEA 2016). Both tables are fixed at
  * construction; only `sc` and `base` change under maintenance. Bags have
  * fewer than 2^16 members (checked by [[MDE]]), so slots fit in 16 bits.
  *
  * The invariant set up by construction and maintained by the sweep of
  * [[ShortcutUpdater]]:
  * `sc(v)(i) == min(base(v)(i), min_w sc(w,v)+sc(w,bag(v)(i)))`.
  *
  * A TD is an [[UpwardGraph]] (`parent`, `depth`, `bag`, `sc`): the tree
  * shape (children, roots, height, LCA, ancestor walks) is derived there,
  * and [[repro.core.h2h.CHQuery]] and [[repro.core.h2h.H2HIndex]] run on a
  * TD directly. It may be a forest if the input graph is disconnected.
  */
final class TD(
    val rank: Array[Int],
    val order: Array[Int],
    parent: Array[Int],
    depth: Array[Int],
    bag: Array[Array[Int]],
    sc: Array[Array[Int]],
    val base: Array[Array[Int]],
    val supporters: Array[Array[Array[Int]]],
    val supSlots: Array[Array[Array[Int]]],
) extends UpwardGraph(parent, depth, bag, sc) {
  import TD.Inf

  /** Current shortcut weight of pair (w, x); `Inf` if x not in bag(w). */
  def scOf(w: Int, x: Int): Int = {
    val b = bag(w)
    var i = 0
    while (i < b.length) { if (b(i) == x) return sc(w)(i); i += 1 }
    Inf
  }

  /** Slot index of x in bag(w), or -1. */
  def slotOf(w: Int, x: Int): Int = {
    val b = bag(w)
    var i = 0
    while (i < b.length) { if (b(i) == x) return i; i += 1 }
    -1
  }

  /** Owner of pair (a, b) = the lower-rank endpoint (its bag holds the slot). */
  def pairOwner(a: Int, b: Int): Int = if (rank(a) < rank(b)) a else b

  /** Treewidth proxy: max bag size. */
  lazy val maxBagSize: Int = if (n == 0) 0 else bag.map(_.length).max

  /** Number of vertices in each vertex's subtree, itself included. A
    * parent ranks above its children, so ascending rank adds each finished
    * subtree to its parent.
    */
  lazy val subtreeSize: Array[Int] = {
    val size = Array.fill(n)(1)
    var r = 0
    while (r < n) { val v = order(r); if (parent(v) != -1) size(parent(v)) += size(v); r += 1 }
    size
  }

  /** Total number of shortcut slots (the CH index size). */
  lazy val slotCount: Long = bag.map(_.length.toLong).sum
}

object TD {
  /** "Infinite" distance guard; small enough that a few additions can't overflow Int. */
  val Inf: Int = Int.MaxValue / 4
}
