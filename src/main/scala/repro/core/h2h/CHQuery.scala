package repro.core.h2h

import repro.core.td.TD

/** CH query [14] as the elimination-tree walk of Customizable CH (Dibbelt,
  * Strasser, Wagner, ACM JEA 2016), over an [[UpwardGraph]]: a TD, or
  * PMHL's T*. This is the query procedure of DCH, of MHL's Q-Stage 2 and
  * of PMHL/PostMHL's PCH stage.
  *
  * Every upward shortcut of `v` leads to a bag member, an ancestor of `v`.
  * So the vertices an upward search from `s` reaches are ancestors of `s`,
  * and visiting them from `s` upward scans each one after every vertex that
  * can lower its distance: no heap is needed, and the distances live in an
  * array indexed by depth. The top vertex of a shortest up-down path is a
  * common ancestor of `s` and `t`, that is an ancestor of their LCA, so the
  * answer is the minimum of `ds(j) + dt(j)` over the depths `j` of the LCA
  * and above.
  *
  * The scratch is two arrays of the endpoints' depths, owned by each call,
  * so one instance may serve any number of threads.
  */
final class CHQuery(g: UpwardGraph) {
  import TD.Inf

  /** Shortest distance; exact when the view is a full contraction
    * hierarchy of the underlying graph. `Inf` if `s` and `t` lie in
    * different trees.
    */
  def query(s: Int, t: Int): Int = {
    if (s == t) return 0
    val ds = upward(s); val dt = upward(t)
    var a = s; var b = t
    while (g.depth(a) > g.depth(b)) a = g.parent(a)
    while (g.depth(b) > g.depth(a)) b = g.parent(b)
    while (a != b) { a = g.parent(a); b = g.parent(b) }
    if (a == -1) return Inf
    var best = Inf
    var j = g.depth(a)
    while (j >= 0) { val c = ds(j) + dt(j); if (c < best) best = c; j -= 1 }
    best
  }

  /** Upward distances from `s` to its ancestors, indexed by depth. */
  private def upward(s: Int): Array[Int] = {
    val d = new Array[Int](g.depth(s) + 1)
    java.util.Arrays.fill(d, Inf); d(g.depth(s)) = 0
    var v = s
    while (v != -1) {
      val dv = d(g.depth(v)); val bg = g.bag(v); val w = g.sc(v)
      var i = 0
      while (i < bg.length) {
        val x = g.depth(bg(i)); val c = dv + w(i)
        if (c < d(x)) d(x) = c
        i += 1
      }
      v = g.parent(v)
    }
    d
  }
}
