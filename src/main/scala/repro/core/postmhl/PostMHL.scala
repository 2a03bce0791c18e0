package repro.core.postmhl

import repro.graph.RoadGraph
import repro.core.td.{MDE, ShortcutUpdater, TD}
import repro.core.h2h.{BoundaryLabels, CHQuery, H2HIndex, UpwardGraph}
import repro.core.sp.BiDijkstra
import repro.core.pmhl.StageTimes
import repro.util.Parallel

/** Post-partitioned Multi-stage Hub Labeling (§VI).
  *
  * One global MDE tree decomposition `td` carries everything:
  *  - TD-partitioning (Algorithm 2) designates partition subtrees rooted at
  *    `roots(i)`; everything above is the overlay; the boundary of
  *    partition i is `X(roots(i)).N` (all overlay vertices);
  *  - the **overlay index** is the H2H labels of the overlay vertices
  *    (upward-closed, self-contained);
  *  - the **post-boundary index** of partition i is the label entries of
  *    its vertices at the boundary depths (global distances to X(root).N,
  *    which lies on the root's ancestor chain) and at the in-partition
  *    depths, built per Algorithm 4 so it needs only the overlay index;
  *  - the **cross-boundary index** is the entries at the other overlay
  *    depths.
  *
  * The assembled `dis` arrays are exactly the H2H labels of `td` (tested),
  * which is the Remark-2 claim that PostMHL reaches DH2H query efficiency:
  * they live in an [[H2HIndex]], whose query serves the overlay and the
  * final stage. The three parts are depth ranges of that one label array,
  * each computed by its recurrence and top-down walk, and each entry has
  * one writer: U3 the overlay rows, U4 the boundary and in-partition
  * depths, U5 the rest.
  *
  * Stages (Figure 9): U1 edge → U2 shortcuts (partition sweeps in
  * parallel, then one overlay sweep) → U3 overlay labels → U4 post-boundary ∥
  * U5 cross-boundary. Queries: BiDijkstra → PCH → post-boundary → full H2H.
  *
  * `stages = 2` keeps only the shortcut arrays (no labels, no LCA). With
  * τ < 0 no bag fits, so k = 0: U2 is one sweep, U3 is DH2H's label update
  * over the whole tree, U4 and U5 are empty and the full query is DH2H's.
  * The global baselines DCH (`stages = 2`), DH2H and MHL are this index.
  */
final class PostMHL(val g: RoadGraph, val tau: Int, val ke: Int,
                    val betaL: Double, val betaU: Double, val threads: Int, val stages: Int = 5) {
  import TD.Inf
  require(stages == 2 || stages == 5, s"stages must be 2 or 5, not $stages")

  val n: Int = g.n
  /** Build seconds: MDE, TD-partitioning, overlay, post-, cross-boundary. */
  val buildTimes = new Array[Double](5)

  val td: TD = timeIt(0) { MDE.decompose(n, g.undirectedEdges) }
  private val upd = new ShortcutUpdater(td)
  val tdp = timeIt(1) { repro.partition.TDPartitioner.partition(td, tau, ke, betaL, betaU) }
  val k: Int = tdp.k
  val partOf: Array[Int] = tdp.partOf
  val roots: Array[Int] = tdp.roots
  /** Boundary (bag of the partition root): rank-descending, so it lies on
    * the root's ancestor chain in ascending depth.
    */
  val partB: Array[Array[Int]] = roots.map(v => td.bag(v))
  /** The depths of `partB(i)`, ascending. */
  private val partDepth: Array[Array[Int]] = partB.map(_.map(td.depth))

  /** H2H labels of `td`, assembled by stage: overlay entries for overlay
    * vertices, split post/cross ranges for in-partition vertices.
    */
  val labels = new H2HIndex(td)
  val dis: Array[Array[Int]] = labels.dis

  private val chQ = new CHQuery(UpwardGraph.fromTD(td))

  private def timeIt[A](slot: Int)(f: => A): A = {
    val t0 = System.nanoTime()
    val r = f
    buildTimes(slot) += (System.nanoTime() - t0) / 1e9
    r
  }

  // ---------------- construction ----------------
  if (stages == 5) {
    timeIt(2) { td.buildLca(); labels.relabel(td.roots.filter(partOf(_) == -1), partOf(_) == -1) }
    timeIt(3) { Parallel.run((0 until k).map(i => () => buildPost(i, Array(roots(i)))), threads) }
    timeIt(4) { Parallel.run((0 until k).map(i => () => buildCross(i, Array(roots(i)))), threads) }
  }

  /** Post-boundary pass (Algorithm 4 lines 5-31) over the subtrees of
    * `tops` in partition i: the H2H recurrence at the boundary depths
    * `partDepth(i)`, then over the in-partition depths [du, dv). Every
    * term it reads is an overlay label (the boundary lies on the root's
    * ancestor chain) or a row of an in-partition ancestor, filled earlier
    * in the walk, so it needs no cross entry.
    */
  private def buildPost(i: Int, tops: Array[Int]): Unit = {
    val bd = partDepth(i); val du = td.depth(roots(i))
    val pathDis = new Array[Array[Int]](td.height)
    for (top <- tops) labels.walk(top, pathDis, _ => true) { v =>
      val dv = td.depth(v)
      val arr = if (dis(v) != null) dis(v)
                else { val a = new Array[Int](dv + 1); java.util.Arrays.fill(a, 0, dv, Inf); a }
      labels.relaxAt(v, pathDis, bd, arr)
      labels.relax(v, pathDis, du, dv, arr)
      arr
    }
  }

  /** Cross-boundary pass: the labels at the overlay depths [0, du) — the
    * H2H recurrence again (everything it reads is overlay labels or
    * earlier cross entries in the same partition). It relaxes into a
    * scratch row, takes U4's entries at the boundary depths into it, and
    * copies it back in one pass, so the boundary entries keep U4's values.
    */
  private def buildCross(i: Int, tops: Array[Int]): Unit = {
    val bd = partDepth(i); val du = td.depth(roots(i))
    val row = new Array[Int](du)
    val pathDis = new Array[Array[Int]](td.height)
    for (top <- tops) labels.walk(top, pathDis, _ => true) { v =>
      val arr = dis(v)
      labels.relax(v, pathDis, 0, du, row)
      var p = 0
      while (p < bd.length) { row(bd(p)) = arr(bd(p)); p += 1 }
      System.arraycopy(row, 0, arr, 0, du)
      arr
    }
  }

  // ---------------- queries ----------------

  /** Q-Stage 1. */
  def queryBiDijkstra(s: Int, t: Int): Int = BiDijkstra.query(g, s, t)

  /** Q-Stage 2: CH search over the global shortcut arrays. */
  def queryPCH(s: Int, t: Int): Int = chQ.query(s, t)

  /** Q-Stage 3: post-boundary query — both overlay or same-partition via
    * the H2H query; cross-partition via boundary concatenation over the
    * overlay index. A same-partition pair's hubs are in-partition vertices
    * or, by running intersection, overlay members of `partB(i)`, so the
    * H2H query reads only depths U4 writes. A cross-partition endpoint's
    * hub distances are its label at those depths, gathered per call.
    */
  def queryPost(s: Int, t: Int): Int = {
    if (s == t) return 0
    val ps = partOf(s); val pt = partOf(t)
    if (ps == pt) return labels.query(s, t)
    // cross-partition (or one endpoint overlay): boundary concatenation
    val (bsS, dsS) =
      if (ps == -1) (Array(s), Array(0)) else (partB(ps), boundaryDis(s, ps))
    val (bsT, dsT) =
      if (pt == -1) (Array(t), Array(0)) else (partB(pt), boundaryDis(t, pt))
    BoundaryLabels.concat(bsS, dsS, bsT, dsT, labels, Inf)
  }

  /** The label of `v`, in partition i, at the depths of `partB(i)`. */
  private def boundaryDis(v: Int, i: Int): Array[Int] = {
    val bd = partDepth(i); val row = dis(v)
    val a = new Array[Int](bd.length)
    var p = 0
    while (p < bd.length) { a(p) = row(bd(p)); p += 1 }
    a
  }

  /** Q-Stage 4: full H2H query (cross-boundary; DH2H-equivalent). */
  def queryFull(s: Int, t: Int): Int = labels.query(s, t)

  // ---------------- maintenance ----------------

  /** Apply one update batch through the first `stages` of U-Stages 1-5
    * (Figure 9); returns their cumulative completion times [edge,
    * shortcuts, overlay labels, post-boundary, cross-boundary].
    */
  def applyUpdateBatch(batch: Seq[(Int, Int, Int)]): StageTimes = {
    val t0 = System.nanoTime()
    val times = new Array[Double](stages)
    def mark(i: Int): Unit = times(i) = (System.nanoTime() - t0) / 1e9

    // U1: on-spot edge update.
    batch.foreach { case (u, v, w) => g.setWeight(u, v, w) }
    mark(0)

    // U2: shortcut update. The partitions sweep their own owners in
    // parallel; the overlay owners they mark stay set and are swept after,
    // together with the overlay's own seeds.
    val byPart = batch.groupBy { case (u, v, _) => partOf(td.pairOwner(u, v)) }
    val affectedByPart = new Array[Array[Int]](k)
    val handOff = new Array[java.util.BitSet](k)
    Parallel.run(byPart.keys.filter(_ != -1).toSeq.map(i => () => {
      val marks = upd.seed(byPart(i))
      affectedByPart(i) = upd.sweep(marks, partOf(_) == i).affected
      handOff(i) = marks
    }), threads)
    val ovMarks = upd.seed(byPart.getOrElse(-1, Nil))
    handOff.foreach(m => if (m != null) ovMarks.or(m))
    val ovRes = upd.sweep(ovMarks, partOf(_) == -1)
    mark(1)
    if (stages == 2) return StageTimes(times)

    // U3: overlay labels under the affected overlay vertices. The dis
    // arrays are the H2H labels of the global tree, so an entry (overlay,
    // post or cross) can change only under a shortcut-affected vertex; the
    // scope is DH2H's, split into the paper's partition-parallel stages:
    //  - a partition whose root lies under an affected overlay vertex is
    //    rebuilt fully;
    //  - otherwise only the subtrees of its own affected vertices rerun;
    //  - untouched partitions are skipped (a changed label of b ∈ B_i, which
    //    their U4 reads, implies an affected overlay vertex above b, hence
    //    above the root).
    labels.updateSubtrees(ovRes.affected, partOf(_) == -1)
    mark(2)

    val ovAffected = new Array[Boolean](n)
    ovRes.affected.foreach(ovAffected(_) = true)
    val fullRebuild: Array[Boolean] = roots.map { r =>
      var a = td.parent(r)
      while (a != -1 && !ovAffected(a)) a = td.parent(a)
      a != -1
    }

    // U4: post-boundary update (partition-parallel); U5 redoes the same
    // tops at the other depths.
    val tops = new Array[Array[Int]](k)
    Parallel.run((0 until k).filter(i =>
        fullRebuild(i) || (affectedByPart(i) != null && affectedByPart(i).nonEmpty)
      ).map(i => () => {
      tops(i) = if (fullRebuild(i)) Array(roots(i)) else td.subtreeTops(affectedByPart(i))
      buildPost(i, tops(i))
    }), threads)
    mark(3)

    // U5: cross-boundary update (partition-parallel).
    Parallel.run((0 until k).filter(tops(_) != null).map(i => () => buildCross(i, tops(i))), threads)
    mark(4)

    StageTimes(times)
  }

  /** Total index entries: labels + shortcut slots. */
  def indexEntries: Long = td.slotCount + labels.labelEntries

  /** Overlay vertex count (Exp 8 reports it when sweeping τ). */
  def overlayCount: Int = tdp.overlayCount
}
