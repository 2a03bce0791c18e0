package repro.core.h2h

import repro.core.td.TD
import scala.collection.mutable

/** H2H distance labels [22] over an [[UpwardGraph]]: a [[TD]], or PMHL's
  * cross-boundary tree T*.
  *
  * `dis(v)(j)` = distance from `v` to its ancestor at depth `j`
  * (`dis(v)(depth(v)) == 0` for `v` itself). Position arrays are implicit:
  * a bag member's position is its depth, since every bag member is an
  * ancestor. Built top-down; maintained by the coarse-but-correct DH2H
  * top-down mechanism [33]: labels can only change inside the subtrees of
  * vertices whose shortcut arrays changed, so those subtrees are recomputed
  * from their highest affected roots (tracking which labels actually moved,
  * which downstream PSP stages need).
  *
  * The recurrence ([[relax]] over a depth range) and the subtree [[walk]]
  * also serve PostMHL, whose index parts are depth ranges of one label
  * array, and PMHL's `L*` ([[repro.core.pmhl.CrossBoundary]]), which walks
  * only the non-boundary subtrees of T* and aliases the other rows.
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

  /** The label of `v` from its bag's shortcuts and `pathDis(j)`, the label
    * of v's ancestor at depth j (only ancestors are read).
    */
  private[core] def computeDis(v: Int, pathDis: Array[Array[Int]]): Array[Int] = {
    val arr = new Array[Int](td.depth(v) + 1)
    relax(v, pathDis, 0, td.depth(v), arr)
    arr
  }

  /** Top-down walk of `top`'s subtree, entering only children for which
    * `descend` holds: each visited `v` gets `dis(v) = label(v)`, which is
    * then `pathDis(depth(v))` for its descendants. The path above `top` is
    * filled from the current labels.
    */
  private[core] def walk(top: Int, pathDis: Array[Array[Int]], descend: Int => Boolean)
                        (label: Int => Array[Int]): Unit = {
    var x = td.parent(top)
    while (x != -1) { pathDis(td.depth(x)) = dis(x); x = td.parent(x) }
    var stack = Array(top); var size = 1
    while (size > 0) {
      size -= 1
      val v = stack(size)
      dis(v) = label(v)
      pathDis(td.depth(v)) = dis(v)
      val ch = td.children(v)
      if (size + ch.length > stack.length) stack = java.util.Arrays.copyOf(stack, 2 * (size + ch.length))
      var i = 0
      while (i < ch.length) { if (descend(ch(i))) { stack(size) = ch(i); size += 1 }; i += 1 }
    }
  }

  /** Full top-down construction. */
  def build(): Unit = {
    val pathDis = new Array[Array[Int]](td.height)
    td.roots.foreach(walk(_, pathDis, _ => true)(computeDis(_, pathDis)))
  }

  /** DH2H-style top-down maintenance: recompute the subtrees rooted at the
    * highest affected vertices; returns the vertices whose labels changed.
    */
  def updateSubtrees(affected: Array[Int]): Array[Int] = {
    val changed = new mutable.ArrayBuffer[Int]()
    val pathDis = new Array[Array[Int]](td.height)
    for (top <- td.subtreeTops(affected)) walk(top, pathDis, _ => true) { v =>
      val arr = computeDis(v, pathDis)
      if (!java.util.Arrays.equals(arr, dis(v))) changed += v
      arr
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
