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
  *  - the **post-boundary index** of partition i is the boundary arrays
  *    `disB(v)` (global distances to X(root).N) plus the distance-array
  *    entries to in-partition ancestors, built per Algorithm 4 so it needs
  *    only the overlay index: X(root).N lies on the root's ancestor chain,
  *    so the boundary all-pair map D is read off the overlay labels;
  *  - the **cross-boundary index** is the entries to overlay ancestors,
  *    the standard H2H recurrence top-down per partition.
  *
  * The assembled `dis` arrays are exactly the H2H labels of `td` (tested),
  * which is the Remark-2 claim that PostMHL reaches DH2H query efficiency:
  * they live in an [[H2HIndex]], whose query serves the overlay and the
  * final stage.
  *
  * Stages (Figure 9): U1 edge → U2 shortcuts (partition-parallel with
  * deferred overlay slots) → U3 overlay labels → U4 post-boundary ∥
  * U5 cross-boundary. Queries: BiDijkstra → PCH → post-boundary → full H2H.
  */
final class PostMHL(val g: RoadGraph, val tau: Int, val ke: Int,
                    val betaL: Double, val betaU: Double, val threads: Int) {
  import TD.Inf

  val n: Int = g.n
  var buildTimes: Array[Double] = _

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
  private val chains: Array[Array[Int]] = roots.map(td.ancestorChain) // incl. root itself

  /** H2H labels of `td`, assembled by stage: overlay entries for overlay
    * vertices, split post/cross ranges for in-partition vertices.
    */
  val labels = new H2HIndex(td)
  val dis: Array[Array[Int]] = labels.dis
  /** Boundary arrays of in-partition vertices. */
  val disB: Array[Array[Int]] = new Array[Array[Int]](n)
  /** Boundary slots of in-partition vertices' bag members (indices into `partB`). */
  private val slots = BoundaryLabels.slotTable(n, partB, partOf, td.bag)

  private val chQ = new CHQuery(UpwardGraph.fromTD(td))

  private def timeIt[A](slot: Int)(f: => A): A = {
    if (buildTimes == null) buildTimes = new Array[Double](5)
    val t0 = System.nanoTime()
    val r = f
    buildTimes(slot) += (System.nanoTime() - t0) / 1e9
    r
  }

  // ---------------- construction ----------------
  timeIt(2) { td.buildLca(); buildOverlay(td.roots.filter(partOf(_) == -1)) }
  timeIt(3) {
    Parallel.run((0 until k).map(i => () => buildPost(i, Array(roots(i)))), threads)
  }
  timeIt(4) {
    Parallel.run((0 until k).map(i => () => buildCross(i, roots(i))), threads)
  }

  /** (Re)build the overlay labels of the overlay subtrees of `fromRoots`,
    * top-down.
    */
  private def buildOverlay(fromRoots: Array[Int]): Unit = {
    val pathDis = new Array[Array[Int]](td.height)
    for (r <- fromRoots) {
      var x = td.parent(r)
      while (x != -1) { pathDis(td.depth(x)) = dis(x); x = td.parent(x) }
      val stack = new java.util.ArrayDeque[Integer]()
      stack.push(r)
      while (!stack.isEmpty) {
        val v = stack.pop().intValue()
        val arr = labels.computeDis(v, pathDis)
        dis(v) = arr
        pathDis(td.depth(v)) = arr
        td.children(v).foreach(c => if (partOf(c) == -1) stack.push(c))
      }
    }
  }

  /** Post-boundary pass (Algorithm 4 lines 5-31) over the subtrees of
    * `tops` in partition i. The boundary all-pair map D comes from the
    * current overlay labels: partB(i) is in ascending depth, so for a < b,
    * `D(a)(b)` is the label of bs(b) at the depth of its ancestor bs(a).
    */
  private def buildPost(i: Int, tops: Array[Int]): Unit = {
    val bs = partB(i); val du = td.depth(roots(i))
    val d = Array.tabulate(bs.length, bs.length) { (a, b) =>
      if (a < b) dis(bs(b))(td.depth(bs(a))) else if (a > b) dis(bs(a))(td.depth(bs(b))) else 0
    }
    val pathVert = new Array[Int](td.height)
    for (from <- tops) {
      var x = td.parent(from)
      while (x != -1) { pathVert(td.depth(x)) = x; x = td.parent(x) }
      val stack = new java.util.ArrayDeque[Integer]()
      stack.push(from)
      while (!stack.isEmpty) {
        val v = stack.pop().intValue()
        val dv = td.depth(v)
        val bg = td.bag(v); val sv = td.sc(v); val sl = slots(v)
        disB(v) = BoundaryLabels.boundaryArray(bg, sv, sl, d, disB)
        // distance-array entries to in-partition ancestors [du, dv)
        val arr = if (dis(v) != null && dis(v).length == dv + 1) dis(v)
                  else { val a = new Array[Int](dv + 1); java.util.Arrays.fill(a, Inf); a }
        var j = du
        while (j < dv) {
          var best = Inf
          val aj = pathVert(j)
          val dbAj = disB(aj)
          val disAj = dis(aj)
          var ki = 0
          while (ki < bg.length) {
            val xk = bg(ki)
            val dxa =
              if (sl(ki) >= 0) dbAj(sl(ki))
              else {
                val dxk = td.depth(xk)
                if (dxk > j) dis(xk)(j) else if (dxk == j) 0 else disAj(dxk)
              }
            val cand = sv(ki) + dxa
            if (cand < best) best = cand
            ki += 1
          }
          arr(j) = best
          j += 1
        }
        arr(dv) = 0
        dis(v) = arr
        pathVert(dv) = v
        td.children(v).foreach(stack.push(_))
      }
    }
  }

  /** Cross-boundary pass: entries to overlay ancestors [0, du) — the
    * standard H2H recurrence (everything it reads is overlay labels or
    * earlier cross entries in the same partition).
    */
  private def buildCross(i: Int, from: Int): Unit = {
    val du = td.depth(roots(i))
    val chain = chains(i) // ancestors of root incl. root; chain(j) for j < du is overlay
    val stack = new java.util.ArrayDeque[Integer]()
    stack.push(from)
    while (!stack.isEmpty) {
      val v = stack.pop().intValue()
      val dv = td.depth(v)
      val bg = td.bag(v); val sv = td.sc(v)
      val arr = dis(v) // allocated by post pass
      var j = 0
      while (j < du) {
        var best = Inf
        var ki = 0
        while (ki < bg.length) {
          val xk = bg(ki); val scx = sv(ki)
          val dxk = td.depth(xk)
          val dxa =
            if (dxk > j) dis(xk)(j)
            else if (dxk == j) 0
            else dis(chain(j))(dxk)
          val cand = scx + dxa
          if (cand < best) best = cand
          ki += 1
        }
        arr(j) = best
        j += 1
      }
      td.children(v).foreach(stack.push(_))
    }
  }

  // ---------------- queries ----------------

  /** Q-Stage 1. */
  def queryBiDijkstra(s: Int, t: Int): Int = BiDijkstra.query(g, s, t)

  /** Q-Stage 2: CH search over the global shortcut arrays. */
  def queryPCH(s: Int, t: Int): Int = chQ.query(s, t)

  /** Q-Stage 3: post-boundary query — same-partition via LCA hubs read
    * from post entries and boundary arrays; cross-partition via boundary
    * concatenation over the overlay index.
    */
  def queryPost(s: Int, t: Int): Int = {
    if (s == t) return 0
    val ps = partOf(s); val pt = partOf(t)
    if (ps == -1 && pt == -1) return labels.query(s, t)
    if (ps != -1 && ps == pt) {
      val a = td.lca(s, t)
      if (a == -1) return Inf
      if (a == s) return dis(t)(td.depth(s))
      if (a == t) return dis(s)(td.depth(t))
      val da = td.depth(a)
      return BoundaryLabels.hubMin(td.bag(a), slots(a), td.depth, dis(s), dis(t), disB(s), disB(t),
        dis(s)(da) + dis(t)(da))
    }
    // cross-partition (or one endpoint overlay): boundary concatenation
    val (bsS, dsS) =
      if (ps == -1) (Array(s), Array(0)) else (partB(ps), disB(s))
    val (bsT, dsT) =
      if (pt == -1) (Array(t), Array(0)) else (partB(pt), disB(t))
    BoundaryLabels.concat(bsS, dsS, bsT, dsT, labels, Inf)
  }

  /** Q-Stage 4: full H2H query (cross-boundary; DH2H-equivalent). */
  def queryFull(s: Int, t: Int): Int = labels.query(s, t)

  // ---------------- maintenance ----------------

  /** Apply one update batch through U-Stages 1-5 (Figure 9); returns
    * cumulative completion times [edge, shortcuts, overlay labels,
    * post-boundary, cross-boundary].
    */
  def applyUpdateBatch(batch: Seq[(Int, Int, Int)]): StageTimes = {
    val t0 = System.nanoTime()
    val times = new Array[Double](5)
    def mark(i: Int): Unit = times(i) = (System.nanoTime() - t0) / 1e9

    // U1: on-spot edge update.
    batch.foreach { case (u, v, w) => g.setWeight(u, v, w) }
    mark(0)

    // U2: shortcut update — partition-parallel, overlay slots deferred.
    val seeds = upd.seed(batch)
    val byPart = seeds.groupBy(e => partOf(td.order((e >>> 20).toInt)))
    val affectedByPart = new Array[Array[Int]](k)
    val deferred = new java.util.concurrent.ConcurrentLinkedQueue[Long]()
    Parallel.run(byPart.keys.filter(_ != -1).toSeq.map(i => () => {
      val res = upd.process(byPart(i), o => partOf(o) == i)
      affectedByPart(i) = res.affected
      res.deferredSlots.foreach(deferred.add)
    }), threads)
    import scala.jdk.CollectionConverters._
    // Deferred slots lost their cause bookkeeping at the partition/overlay
    // hand-off, so they re-enter with forced-rescan semantics.
    val ovRes = upd.process(byPart.getOrElse(-1, IndexedSeq.empty),
      o => partOf(o) == -1, rescanSeeds = deferred.asScala.toIndexedSeq.distinct)
    require(ovRes.deferredSlots.isEmpty, "overlay pass must not defer")
    mark(1)

    // U3: overlay label update from the highest affected overlay vertices.
    //
    // Because PostMHL's dis arrays ARE the H2H labels of the global tree,
    // a label (overlay, post, or cross entry — and disB, which duplicates
    // cross entries at boundary depths) can only change inside the subtree
    // of a shortcut-affected vertex. So the update scope below is exactly
    // DH2H's, split into the paper's partition-parallel stages:
    //  - a partition whose root lies under an affected *overlay* top is
    //    rebuilt fully;
    //  - otherwise only the subtrees of its own affected vertices rerun;
    //  - untouched partitions are skipped entirely (their D cannot have
    //    changed: a changed label of b ∈ B_i implies an affected overlay
    //    top above b, hence above the root — the full-rebuild case).
    val ovTops: Array[Int] = td.subtreeTops(ovRes.affected)
    buildOverlay(ovTops)
    mark(2)

    val ovTopSet = ovTops.toSet
    val fullRebuild: Array[Boolean] = Array.tabulate(k) { i =>
      var a = td.parent(roots(i)); var hit = false
      while (a != -1 && !hit) { if (ovTopSet.contains(a)) hit = true; a = td.parent(a) }
      hit
    }

    // U4: post-boundary update (partition-parallel); U5 redoes the same tops.
    val tops = new Array[Array[Int]](k)
    Parallel.run((0 until k).filter(i =>
        fullRebuild(i) || (affectedByPart(i) != null && affectedByPart(i).nonEmpty)
      ).map(i => () => {
      tops(i) = if (fullRebuild(i)) Array(roots(i)) else td.subtreeTops(affectedByPart(i))
      buildPost(i, tops(i))
    }), threads)
    mark(3)

    // U5: cross-boundary update (partition-parallel).
    Parallel.run((0 until k).filter(tops(_) != null).map(i => () => tops(i).foreach(buildCross(i, _))), threads)
    mark(4)

    StageTimes(times)
  }

  /** Total index entries: labels + boundary arrays + shortcut slots. */
  def indexEntries: Long = {
    var s = td.slotCount + labels.labelEntries
    var v = 0
    while (v < n) { if (disB(v) != null) s += disB(v).length; v += 1 }
    s
  }

  /** Overlay vertex count (Exp 8 reports it when sweeping τ). */
  def overlayCount: Int = tdp.overlayCount
}
