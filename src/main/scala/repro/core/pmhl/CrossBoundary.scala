package repro.core.pmhl

import repro.core.td.TD
import repro.core.h2h.{H2HIndex, UpwardGraph}
import repro.util.{Parallel, TreeLca}
import scala.collection.mutable

/** PMHL cross-boundary index `L*` (§IV-A, Algorithm 1): the H2H labels
  * [22] of the cross-boundary tree T*.
  *
  * T* aggregates the overlay tree and the partition trees: a boundary
  * vertex keeps its overlay parent and bag, a non-boundary vertex its
  * partition-tree parent and bag (the parent is another non-boundary
  * vertex or a boundary vertex of its partition, the attach point).
  * [[PMHL]] builds T* once, as the [[UpwardGraph]] its PCH stage walks
  * too, and passes it in. Every bag member is a T* ancestor, so the labels
  * follow the plain H2H recurrence over T*:
  *
  *  - boundary vertices inherit the overlay index (read through to
  *    `labOv.dis`, so U-Stage 3 keeps them current for free);
  *  - a non-boundary vertex `v` gets `dis*(v)(j)`, the global distance to
  *    its T* ancestor at depth `j`, as [[H2HIndex.relaxMember]] over
  *    `[0, depthStar(v))` for every member of its partition bag, top-down
  *    from the attach points (see DESIGN.md correctness notes and
  *    Theorem 3).
  *
  * Queries are 2-hop H2H over T*, with the LCA's T* bag as the hub set.
  */
final class CrossBoundary(
    k: Int,
    boundary: Array[Boolean],
    part: Array[Int],
    labOv: H2HIndex,
    star: UpwardGraph,
) {
  import TD.Inf

  val parentStar: Array[Int] = star.parent
  val depthStar: Array[Int] = star.depth
  private val n = parentStar.length

  private val (childrenStar: Array[Array[Int]], rootsStar: Array[Int]) = TD.forest(parentStar)
  /** T* height (max depth + 1): the length of a root-to-leaf path. */
  private val heightStar: Int = if (n == 0) 0 else depthStar.max + 1
  val lcaStar = new TreeLca(n, parentStar, childrenStar, depthStar, rootsStar)

  /** Roots of the non-boundary subtrees hanging off the overlay part,
    * grouped by partition (one parallel update task per partition).
    */
  private val subtreeRootsByPart: Array[Array[Int]] = {
    val buf = Array.fill(k)(new mutable.ArrayBuffer[Int]())
    var v = 0
    while (v < n) {
      if (!boundary(v) && (parentStar(v) == -1 || boundary(parentStar(v))))
        buf(part(v)) += v
      v += 1
    }
    buf.map(_.toArray)
  }

  /** Overlay vertices whose label changes force partition i's cross
    * labels to be recomputed: the T* chains above its attach points.
    */
  private val triggerSet: Array[mutable.HashSet[Int]] = Array.tabulate(k) { i =>
    val s = new mutable.HashSet[Int]()
    subtreeRootsByPart(i).foreach { r =>
      var a = parentStar(r)
      while (a != -1) { s += a; a = parentStar(a) }
    }
    s
  }

  /** Cross labels of non-boundary vertices; overlay vertices read through
    * to the overlay index.
    */
  private val crossDis: Array[Array[Int]] = new Array[Array[Int]](n)

  /** dis* accessor (Lemma 2 inheritance for overlay vertices). */
  def disStarOf(v: Int): Array[Int] = if (boundary(v)) labOv.dis(v) else crossDis(v)

  /** Top-down walk of the non-boundary subtree under `root`; `pathDis(j)`
    * is the label of the current vertex's T* ancestor at depth j.
    */
  private def computeSubtree(root: Int, pathDis: Array[Array[Int]]): Unit = {
    var a = parentStar(root)
    while (a != -1) { pathDis(depthStar(a)) = labOv.dis(a); a = parentStar(a) }
    var stack = Array(root); var size = 1
    while (size > 0) {
      size -= 1
      val v = stack(size)
      val dv = depthStar(v)
      val arr = new Array[Int](dv + 1)
      java.util.Arrays.fill(arr, 0, dv, Inf)
      val bg = star.bag(v); val sv = star.sc(v)
      var i = 0
      while (i < bg.length) { H2HIndex.relaxMember(sv(i), depthStar(bg(i)), pathDis, 0, dv, arr); i += 1 }
      crossDis(v) = arr; pathDis(dv) = arr
      val ch = childrenStar(v)
      if (size + ch.length > stack.length) stack = java.util.Arrays.copyOf(stack, 2 * (size + ch.length))
      System.arraycopy(ch, 0, stack, size, ch.length); size += ch.length
    }
  }

  /** Build (or rebuild) all cross labels of partition i. */
  def buildPartition(i: Int): Unit = {
    val pathDis = new Array[Array[Int]](heightStar)
    subtreeRootsByPart(i).foreach(computeSubtree(_, pathDis))
  }

  /** Full construction (Step 6 of PMHL), partition-parallel. */
  def buildAll(threads: Int): Unit =
    Parallel.run((0 until k).map(i => () => buildPartition(i)), threads)

  /** U-Stage 5: recompute cross labels of the affected partitions.
    *
    * @param partitionScAffected partitions whose partition-TD shortcut
    *                            arrays changed in U-Stage 2
    * @param changedOvLabels     overlay vertices whose labels changed in
    *                            U-Stage 3
    */
  def update(partitionScAffected: Array[Boolean],
             changedOvLabels: Array[Int],
             threads: Int): Array[Boolean] = {
    val affected = Array.tabulate(k)(i =>
      partitionScAffected(i) || changedOvLabels.exists(triggerSet(i).contains))
    val tasks = (0 until k).filter(affected).map(i => () => buildPartition(i))
    Parallel.run(tasks, threads)
    affected
  }

  /** 2-hop H2H query on T* (Q-Stage 5). */
  def query(s: Int, t: Int): Int = {
    if (s == t) return 0
    val a = lcaStar.lca(s, t)
    if (a == -1) return Inf
    if (a == s) return disStarOf(t)(depthStar(s))
    if (a == t) return disStarOf(s)(depthStar(t))
    val ds = disStarOf(s); val dt = disStarOf(t)
    val da = depthStar(a)
    var best = ds(da) + dt(da)
    val bg = star.bag(a)
    var i = 0
    while (i < bg.length) {
      val dx = depthStar(bg(i))
      val cand = ds(dx) + dt(dx)
      if (cand < best) best = cand
      i += 1
    }
    best
  }

  /** Total label entries (for the |L| metric). */
  def labelEntries: Long = {
    var s = 0L; var v = 0
    while (v < n) {
      if (!boundary(v) && crossDis(v) != null) s += crossDis(v).length
      v += 1
    }
    s
  }
}
