package repro.core.h2h

import repro.core.td.TD
import scala.collection.mutable

/** H2H distance labels [22] over a [[TD]].
  *
  * `dis(v)(j)` = distance from `v` to its ancestor at depth `j`
  * (`dis(v)(depth(v)) == 0` for `v` itself). Position arrays are implicit:
  * a bag member's position is its depth, since every bag member is an
  * ancestor. Built top-down; maintained by the coarse-but-correct DH2H
  * top-down mechanism [33]: labels can only change inside the subtrees of
  * vertices whose shortcut arrays changed, so those subtrees are recomputed
  * from their highest affected roots (tracking which labels actually moved,
  * which downstream PSP stages need).
  */
final class H2HIndex(val td: TD) {
  import TD.Inf

  /** Distance labels; null until `build()`. */
  val dis: Array[Array[Int]] = new Array[Array[Int]](td.n)

  /** Total label entries (the paper's |L| for hop-based indexes). */
  def labelEntries: Long = {
    var s = 0L; var v = 0
    while (v < td.n) { if (dis(v) != null) s += dis(v).length; v += 1 }
    s
  }

  /** The label of `v` from its bag's shortcuts and `pathDis(j)`, the label
    * of v's ancestor at depth j (only ancestors are read).
    */
  private[core] def computeDis(v: Int, pathDis: Array[Array[Int]]): Array[Int] = {
    val d = td.depth(v)
    val arr = new Array[Int](d + 1)
    java.util.Arrays.fill(arr, Inf)
    arr(d) = 0
    val bg = td.bag(v); val sv = td.sc(v)
    var i = 0
    while (i < bg.length) {
      val x = bg(i); val dx = td.depth(x); val scv = sv(i)
      val disx = pathDis(dx)
      var j = 0
      while (j < d) {
        val dxj =
          if (j < dx) disx(j)
          else if (j == dx) 0
          else pathDis(j)(dx)
        val cand = scv + dxj
        if (cand < arr(j)) arr(j) = cand
        j += 1
      }
      i += 1
    }
    arr
  }

  /** Preorder walk of `root`'s subtree computing labels; if `collectChanged`
    * is non-null, vertices whose label array differs from before are added.
    */
  private def buildSubtree(root: Int, pathDis: Array[Array[Int]],
                           collectChanged: mutable.ArrayBuffer[Int]): Unit = {
    val stack = new java.util.ArrayDeque[Integer]()
    stack.push(root)
    while (!stack.isEmpty) {
      val v = stack.pop().intValue()
      val arr = computeDis(v, pathDis)
      if (collectChanged != null && !java.util.Arrays.equals(arr, dis(v))) collectChanged += v
      dis(v) = arr
      pathDis(td.depth(v)) = arr
      val ch = td.children(v)
      var i = 0
      while (i < ch.length) { stack.push(ch(i)); i += 1 }
    }
  }

  /** Full top-down construction. */
  def build(): Unit = {
    val pathDis = new Array[Array[Int]](td.height)
    td.roots.foreach(r => buildSubtree(r, pathDis, null))
  }

  /** DH2H-style top-down maintenance: recompute the subtrees rooted at the
    * highest affected vertices; returns the vertices whose labels changed.
    */
  def updateSubtrees(affected: Array[Int]): Array[Int] = {
    val changed = new mutable.ArrayBuffer[Int]()
    val pathDis = new Array[Array[Int]](td.height)
    for (v <- td.subtreeTops(affected)) {
      // Fill the path above v with current (unchanged) ancestor labels.
      var x = td.parent(v)
      while (x != -1) { pathDis(td.depth(x)) = dis(x); x = td.parent(x) }
      buildSubtree(v, pathDis, changed)
    }
    changed.toArray
  }

  /** H2H distance query via LCA separator; `Inf` if disconnected. */
  def query(s: Int, t: Int): Int = {
    if (s == t) return 0
    val a = td.lca(s, t)
    if (a == -1) return Inf
    if (a == s) return dis(t)(td.depth(s))
    if (a == t) return dis(s)(td.depth(t))
    val da = td.depth(a)
    var best = dis(s)(da) + dis(t)(da)
    val bg = td.bag(a)
    var i = 0
    while (i < bg.length) {
      val dx = td.depth(bg(i))
      val cand = dis(s)(dx) + dis(t)(dx)
      if (cand < best) best = cand
      i += 1
    }
    best
  }
}
