package repro.core.pmhl

import repro.core.td.TD
import repro.core.h2h.{BoundaryLabels, H2HIndex}
import repro.util.{Parallel, TreeLca}
import scala.collection.mutable

/** PMHL cross-boundary index `L*` (§IV-A, Algorithm 1).
  *
  * The cross-boundary tree `T*` aggregates the overlay tree and the
  * partition trees: overlay vertices keep their overlay parents; a
  * non-boundary vertex keeps its partition-tree parent (which is either
  * another non-boundary vertex or a boundary vertex of its partition —
  * the attach point). [[PMHL]] builds T* (`parentStar`, `depthStar`) once,
  * because its PCH stage walks it too, and passes it in. Labels:
  *
  *  - overlay vertices inherit the overlay index (read through to
  *    `labOv.dis`, so U-Stage 3 keeps them current for free);
  *  - a non-boundary vertex `v` of partition `i` gets
  *      `dis*(v)(j)` — global distance to its T*-ancestor at depth `j`,
  *      computed top-down over the partition bag `X_i(v).N`, where the
  *      distance from a boundary bag member to an overlay ancestor comes
  *      from a per-subtree matrix `M` of overlay H2H queries and to a
  *      non-boundary ancestor from that ancestor's boundary array `disB`
  *      (distances from the ancestor to every b ∈ B_i, also maintained
  *      here) — see DESIGN.md correctness notes and Theorem 3.
  *
  * Cross-partition queries are answered as plain 2-hop H2H over `T*`
  * using the (always-overlay) LCA bag as the hub set.
  */
final class CrossBoundary(
    n: Int,
    boundary: Array[Boolean],
    part: Array[Int],
    partBoundary: Array[Array[Int]],
    tdPart: Array[TD],
    tdOv: TD,
    labOv: H2HIndex,
    dMat: Array[Array[Array[Int]]],
    val parentStar: Array[Int],
    val depthStar: Array[Int],
) {
  import TD.Inf

  val k: Int = tdPart.length

  val (childrenStar: Array[Array[Int]], rootsStar: Array[Int]) = TD.forest(parentStar)
  /** T* height (max depth + 1): the length of a root-to-leaf path. */
  private val heightStar: Int = if (n == 0) 0 else depthStar.max + 1
  val lcaStar = new TreeLca(n, parentStar, childrenStar, depthStar, rootsStar)

  /** Roots of the non-boundary subtrees hanging off the overlay part,
    * grouped by partition (one parallel update task per partition).
    */
  val subtreeRootsByPart: Array[Array[Int]] = {
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
    * labels to be recomputed: B_i plus every chain ancestor above its
    * subtree attach points.
    */
  val triggerSet: Array[mutable.HashSet[Int]] = Array.tabulate(k) { i =>
    val s = new mutable.HashSet[Int]()
    partBoundary(i).foreach(s += _)
    subtreeRootsByPart(i).foreach { r =>
      var a = parentStar(r)
      while (a != -1) { s += a; a = tdOv.parent(a) }
    }
    s
  }

  /** Cross labels of non-boundary vertices; overlay vertices read through
    * to the overlay index.
    */
  private val crossDis: Array[Array[Int]] = new Array[Array[Int]](n)

  /** Boundary arrays: disB(v)(bi) = global distance from non-boundary v
    * to partBoundary(part(v))(bi).
    */
  private val disB: Array[Array[Int]] = new Array[Array[Int]](n)

  /** dis* accessor (Lemma 2 inheritance for overlay vertices). */
  def disStarOf(v: Int): Array[Int] = if (boundary(v)) labOv.dis(v) else crossDis(v)

  def disBOf(v: Int): Array[Int] = disB(v)

  /** Boundary slots (indices into `partBoundary`) of each non-boundary
    * vertex's partition-bag members.
    */
  private val slots = BoundaryLabels.slotTable(n, partBoundary,
    v => if (boundary(v)) -1 else part(v), v => tdPart(part(v)).bag(v))

  /** Per-(partition, attach boundary vertex) matrix: M(bi)(j) = global
    * distance from partBoundary(i)(bi) to the overlay chain vertex at
    * depth j above (and including) the attach point.
    */
  private def buildM(i: Int, b0: Int): Array[Array[Int]] = {
    val chain = tdOv.ancestorChain(b0) // depth 0 .. depth(b0), == T* depths
    val bs = partBoundary(i)
    Array.tabulate(bs.length) { bi =>
      val b = bs(bi)
      chain.map(a => labOv.query(b, a))
    }
  }

  private def computeSubtree(i: Int, root: Int): Unit = {
    val bs = partBoundary(i)
    val b0 = parentStar(root)
    val m: Array[Array[Int]] =
      if (b0 == -1) Array.fill(bs.length)(Array.emptyIntArray) else buildM(i, b0)
    val attachDepth = if (b0 == -1) -1 else depthStar(b0)
    val td = tdPart(i)
    val pathDis = new Array[Array[Int]](heightStar)
    val pathDisB = new Array[Array[Int]](heightStar)
    // overlay part of the path
    if (b0 != -1) {
      val chain = tdOv.ancestorChain(b0)
      var j = 0
      while (j <= attachDepth) { pathDis(j) = labOv.dis(chain(j)); j += 1 }
    }
    val stack = new java.util.ArrayDeque[Integer]()
    stack.push(root)
    while (!stack.isEmpty) {
      val v = stack.pop().intValue()
      val dv = depthStar(v)
      val bg = td.bag(v); val sv = td.sc(v); val sl = slots(v)
      val arr = new Array[Int](dv + 1)
      java.util.Arrays.fill(arr, Inf); arr(dv) = 0
      var ki = 0
      while (ki < bg.length) {
        val scx = sv(ki); val xb = sl(ki)
        if (xb < 0) H2HIndex.relaxMember(scx, depthStar(bg(ki)), pathDis, 0, dv, arr)
        else {
          val mx = m(xb)
          var j = 0
          while (j < dv) {
            val dxa = if (j <= attachDepth) mx(j) else pathDisB(j)(xb)
            val cand = scx + dxa
            if (cand < arr(j)) arr(j) = cand
            j += 1
          }
        }
        ki += 1
      }
      // Non-boundary bag members are T*-ancestors in this subtree, so
      // their boundary arrays were written earlier in this walk.
      val arrB = BoundaryLabels.boundaryArray(bg, sv, sl, dMat(i), disB)
      crossDis(v) = arr; disB(v) = arrB
      pathDis(dv) = arr; pathDisB(dv) = arrB
      childrenStar(v).foreach(stack.push(_))
    }
  }

  /** Build (or rebuild) all cross labels of partition i. */
  def buildPartition(i: Int): Unit =
    subtreeRootsByPart(i).foreach(r => computeSubtree(i, r))

  /** Full construction (Step 6 of PMHL), partition-parallel. */
  def buildAll(threads: Int): Unit =
    Parallel.run((0 until k).map(i => () => buildPartition(i)), threads)

  /** U-Stage 5: recompute cross labels of the affected partitions.
    *
    * @param partitionScAffected partitions whose partition-TD shortcut
    *                            arrays changed in U-Stage 2
    * @param changedOvLabels     overlay vertices whose labels changed in
    *                            U-Stage 3
    * @param changedD            partitions whose boundary all-pair matrix
    *                            changed in U-Stage 4
    */
  def update(partitionScAffected: Array[Boolean],
             changedOvLabels: Array[Int],
             changedD: Array[Boolean],
             threads: Int): Array[Boolean] = {
    val affected = new Array[Boolean](k)
    var i = 0
    while (i < k) {
      affected(i) = partitionScAffected(i) || changedD(i) ||
        changedOvLabels.exists(triggerSet(i).contains)
      i += 1
    }
    val tasks = (0 until k).filter(affected).map(i => () => buildPartition(i))
    Parallel.run(tasks, threads)
    affected
  }

  /** Cross-partition 2-hop query on T* (Q-Stage 5). */
  def query(s: Int, t: Int): Int = {
    if (s == t) return 0
    val a = lcaStar.lca(s, t)
    if (a == -1) return Inf
    if (a == s) return disStarOf(t)(depthStar(s))
    if (a == t) return disStarOf(s)(depthStar(t))
    val ds = disStarOf(s); val dt = disStarOf(t)
    val da = depthStar(a)
    var best = ds(da) + dt(da)
    if (boundary(a)) {
      // Cross-partition case (Theorem 3): the LCA is an overlay vertex and
      // its overlay bag members are overlay ancestors of both endpoints.
      val bg = tdOv.bag(a)
      var i = 0
      while (i < bg.length) {
        val dx = depthStar(bg(i))
        val cand = ds(dx) + dt(dx)
        if (cand < best) best = cand
        i += 1
      }
    } else {
      // Same-subtree case: every member of the LCA's partition bag is a
      // T*-ancestor of both endpoints. Non-boundary members are read at
      // their depth positions; boundary members through the boundary
      // arrays, which hold the same distances.
      best = BoundaryLabels.hubMin(tdPart(part(a)).bag(a), slots(a), depthStar, ds, dt,
        disB(s), disB(t), best)
    }
    best
  }

  /** Total label entries (for the |L| metric). */
  def labelEntries: Long = {
    var s = 0L; var v = 0
    while (v < n) {
      if (!boundary(v) && crossDis(v) != null) s += crossDis(v).length + disB(v).length
      v += 1
    }
    s
  }
}
