package repro.core.td

import repro.util.TreeLca

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
  * The tree may be a forest if the input graph is disconnected; `parent`
  * is -1 for roots and LCA queries across components return -1.
  */
final class TD(
    val n: Int,
    val rank: Array[Int],
    val order: Array[Int],
    val parent: Array[Int],
    val children: Array[Array[Int]],
    val depth: Array[Int],
    val bag: Array[Array[Int]],
    val sc: Array[Array[Int]],
    val base: Array[Array[Int]],
    val supporters: Array[Array[Array[Int]]],
    val supSlots: Array[Array[Array[Int]]],
    val roots: Array[Int],
) {
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

  /** Tree height (max depth + 1). */
  lazy val height: Int = if (n == 0) 0 else depth.max + 1

  /** Treewidth proxy: max bag size. */
  lazy val maxBagSize: Int = if (n == 0) 0 else bag.map(_.length).max

  /** Total number of shortcut slots (the CH index size). */
  lazy val slotCount: Long = bag.map(_.length.toLong).sum

  /** Euler-tour LCA over this tree, built on first use. */
  private lazy val treeLca = new TreeLca(n, parent, children, depth, roots)

  /** Build the LCA structure now rather than on the first `lca` call. */
  def buildLca(): Unit = treeLca

  /** Lowest common ancestor of s and t; -1 if in different components. */
  def lca(s: Int, t: Int): Int = treeLca.lca(s, t)

  /** The members of `affected` with no affected proper ancestor: the roots
    * of the subtrees a top-down label pass must redo, in input order. Keeps
    * per-call state only, so partition tasks may call it concurrently.
    */
  def subtreeTops(affected: Array[Int]): Array[Int] = {
    val set = new java.util.HashSet[Integer]()
    affected.foreach(v => set.add(v))
    affected.filter { v =>
      var a = parent(v); var top = true
      while (a != -1 && top) { if (set.contains(a)) top = false; a = parent(a) }
      top
    }
  }

  /** Is `a` an ancestor of (or equal to) `v`? O(depth) parent walk. */
  def isAncestorOrSelf(a: Int, v: Int): Boolean = {
    var x = v
    while (x != -1 && depth(x) >= depth(a)) {
      if (x == a) return true
      x = parent(x)
    }
    false
  }

  /** Ancestor chain of v from root (depth 0) down to v inclusive. */
  def ancestorChain(v: Int): Array[Int] = {
    val res = new Array[Int](depth(v) + 1)
    var x = v
    while (x != -1) { res(depth(x)) = x; x = parent(x) }
    res
  }
}

object TD {
  /** "Infinite" distance guard; small enough that a few additions can't overflow Int. */
  val Inf: Int = Int.MaxValue / 4

  /** The children lists and the roots of the forest `parent` describes
    * (-1 marks a root), each in ascending vertex id.
    */
  def forest(parent: Array[Int]): (Array[Array[Int]], Array[Int]) = {
    val n = parent.length
    val count = new Array[Int](n)
    var nRoots = 0
    var v = 0
    while (v < n) { if (parent(v) == -1) nRoots += 1 else count(parent(v)) += 1; v += 1 }
    val children = count.map(c => if (c == 0) Array.emptyIntArray else new Array[Int](c))
    val roots = new Array[Int](nRoots)
    java.util.Arrays.fill(count, 0)
    nRoots = 0
    v = 0
    while (v < n) {
      val p = parent(v)
      if (p == -1) { roots(nRoots) = v; nRoots += 1 }
      else { children(p)(count(p)) = v; count(p) += 1 }
      v += 1
    }
    (children, roots)
  }
}
