package repro.core.h2h

import repro.core.td.TD
import repro.util.TreeLca

/** The tree every query and label kernel runs on: [[CHQuery]] walks it and
  * [[H2HIndex]] labels it.
  *
  * Per vertex `v`: its `parent` (-1 for a root) and `depth` in a forest in
  * which every member of `bag(v)` is a proper ancestor of `v`, and `sc(v)`,
  * the upward shortcut weights aligned with `bag(v)`. A [[TD]] is one; PMHL
  * builds two more, the cross-boundary tree T* and the post-boundary
  * forest, whose `sc` rows alias the overlay and partition TDs' arrays, so
  * weight maintenance done by `ShortcutUpdater` is visible there without
  * copying.
  *
  * The shape of the forest (children, roots, height, LCA, ancestor walks)
  * is derived here from `parent` and `depth`, once per tree. The tree may
  * be a forest if the input graph is disconnected; LCA queries across
  * components return -1.
  */
class UpwardGraph(
    val parent: Array[Int],
    val depth: Array[Int],
    val bag: Array[Array[Int]],
    val sc: Array[Array[Int]],
) {
  val n: Int = parent.length

  /** Children of each vertex, in ascending vertex id. */
  val children: Array[Array[Int]] = {
    val count = new Array[Int](n)
    var v = 0
    while (v < n) { if (parent(v) != -1) count(parent(v)) += 1; v += 1 }
    val ch = count.map(c => if (c == 0) Array.emptyIntArray else new Array[Int](c))
    java.util.Arrays.fill(count, 0)
    v = 0
    while (v < n) {
      val p = parent(v)
      if (p != -1) { ch(p)(count(p)) = v; count(p) += 1 }
      v += 1
    }
    ch
  }

  /** The roots of the forest, in ascending vertex id. */
  val roots: Array[Int] = Array.range(0, n).filter(parent(_) == -1)

  /** Tree height (max depth + 1). */
  lazy val height: Int = if (n == 0) 0 else depth.max + 1

  /** Euler-tour LCA over this tree, built on first use. */
  private lazy val treeLca = new TreeLca(n, parent, children, depth, roots)

  /** Build the LCA structure now rather than on the first `lca` call. */
  def buildLca(): Unit = treeLca

  /** Lowest common ancestor of s and t; -1 if in different components. */
  def lca(s: Int, t: Int): Int = treeLca.lca(s, t)

  /** The members of `affected` with no affected proper ancestor: the roots
    * of the subtrees a top-down label pass must redo, in input order.
    *
    * One walk up from each member's parent stops at the first vertex whose
    * answer (is it or an ancestor affected?) is already in a per-call memo,
    * then writes that answer along the walked path, so every vertex is
    * walked at most once per call. Keeps per-call state only, so partition
    * tasks may call it concurrently.
    */
  def subtreeTops(affected: Array[Int]): Array[Int] = {
    // memo(x): 0 unknown, Below if x or an ancestor of x is affected, Free if not.
    val Below: Byte = 1; val Free: Byte = 2
    val memo = new Array[Byte](n)
    affected.foreach(memo(_) = Below)
    val path = new Array[Int](height)
    affected.filter { v =>
      var x = parent(v); var len = 0
      while (x != -1 && memo(x) == 0) { path(len) = x; len += 1; x = parent(x) }
      val ans = if (x == -1) Free else memo(x)
      while (len > 0) { len -= 1; memo(path(len)) = ans }
      ans == Free
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

object UpwardGraph {
  /** A TD is its own upward graph. */
  def fromTD(td: TD): UpwardGraph = td
}
