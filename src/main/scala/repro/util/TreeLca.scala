package repro.util

/** Euler-tour + sparse-table LCA over an arbitrary forest: the LCA of
  * every [[repro.core.h2h.UpwardGraph]] (each TD, and PMHL's
  * cross-boundary tree T* and post-boundary forest).
  * O(n log n) build, O(1) query; -1 across components.
  */
final class TreeLca(n: Int, parent: Array[Int], children: Array[Array[Int]],
                    val depth: Array[Int], roots: Array[Int]) {

  private val eulerFirst = new Array[Int](n)
  /** Tree index of each vertex; -1 if no root reaches it. */
  private val comp = { val a = new Array[Int](n); java.util.Arrays.fill(a, -1); a }
  private val eulerDepth = new Array[Int](2 * math.max(n, 1))
  private val eulerVert = new Array[Int](2 * math.max(n, 1))
  private val tourLength: Int = tour()
  private val logs: Array[Int] = {
    val lg = new Array[Int](math.max(tourLength, 1) + 1)
    var i = 2
    while (i < lg.length) { lg(i) = lg(i / 2) + 1; i += 1 }
    lg
  }
  private val sparse: Array[Array[Int]] = table()

  /** Iterative Euler tour of every tree, on primitive stacks (a forest may
    * hold many small trees); returns its length.
    */
  private def tour(): Int = {
    val stack = new Array[Int](math.max(n, 1))
    val next = new Array[Int](math.max(n, 1))
    var pos = 0
    var ci = 0
    while (ci < roots.length) {
      val r = roots(ci)
      comp(r) = ci; eulerFirst(r) = pos
      eulerVert(pos) = r; eulerDepth(pos) = depth(r); pos += 1
      stack(0) = r; next(0) = 0
      var top = 0
      while (top >= 0) {
        val ch = children(stack(top))
        if (next(top) < ch.length) {
          val c = ch(next(top))
          next(top) += 1
          comp(c) = ci; eulerFirst(c) = pos
          eulerVert(pos) = c; eulerDepth(pos) = depth(c); pos += 1
          top += 1; stack(top) = c; next(top) = 0
        } else {
          top -= 1
          if (top >= 0) {
            val p = stack(top)
            eulerVert(pos) = p; eulerDepth(pos) = depth(p); pos += 1
          }
        }
      }
      ci += 1
    }
    pos
  }

  /** sparse(k)(j): tour position of the shallowest entry in [j, j + 2^k). */
  private def table(): Array[Array[Int]] = {
    val levels = logs(math.max(tourLength, 1)) + 1
    val sp = new Array[Array[Int]](levels)
    sp(0) = Array.range(0, tourLength)
    var k = 1
    while (k < levels) {
      val half = 1 << (k - 1)
      val prev = sp(k - 1)
      val cur = new Array[Int](math.max(0, tourLength - (1 << k) + 1))
      var j = 0
      while (j < cur.length) {
        val a = prev(j); val b = prev(j + half)
        cur(j) = if (eulerDepth(a) <= eulerDepth(b)) a else b
        j += 1
      }
      sp(k) = cur
      k += 1
    }
    sp
  }

  /** LCA of s and t, or -1 if they are in different components. */
  def lca(s: Int, t: Int): Int = {
    val c = comp(s)
    if (c < 0 || c != comp(t)) return -1
    var l = eulerFirst(s); var r = eulerFirst(t)
    if (l > r) { val tmp = l; l = r; r = tmp }
    val k = logs(r - l + 1)
    val a = sparse(k)(l); val b = sparse(k)(r - (1 << k) + 1)
    eulerVert(if (eulerDepth(a) <= eulerDepth(b)) a else b)
  }
}
