package repro.perfbench

import repro.baseline.Solution
import repro.core.h2h.{CHQuery, H2HIndex, UpwardGraph}
import repro.core.sp.Dijkstra
import repro.core.td.{MDE, ShortcutUpdater, TD}
import repro.graph.RoadGraph
import repro.partition.{SpatialPartitioner, TDPartitioner}
import repro.throughput.{QueueSim, StageProfile}
import scala.collection.mutable.ArrayBuffer

/** Keeps garbage collection out of timed batches: before a batch it
  * collects if the young generation could not hold twice the most any
  * batch has allocated so far (with no young generation to watch, it
  * collects before every batch).
  */
final class HeapGuard {
  import scala.jdk.CollectionConverters._
  private val eden = java.lang.management.ManagementFactory.getMemoryPoolMXBeans.asScala
    .find(_.getName.contains("Eden"))
  private var before = 0L
  private var perBatch = 0L

  def beforeBatch(): Unit = eden match {
    case Some(p) =>
      val u = p.getUsage
      val cap = if (u.getMax > 0) u.getMax else u.getCommitted
      if (perBatch == 0 || cap - u.getUsed < 2 * perBatch) System.gc()
      before = p.getUsage.getUsed
    case None => System.gc()
  }

  def afterBatch(): Unit = eden.foreach { p =>
    perBatch = math.max(perBatch, p.getUsage.getUsed - before)
  }
}

/** The measurement in one JVM: the traffic, the Dijkstra ground truth, the
  * exactness tally, and the untraced or traced batch loop.
  */
final class Run(w: Workload, g: RoadGraph, seed: Long, seconds: Double) {
  import Main._

  private val stream = new UpdateStream(g, w.batchSize, Workloads.WeightCap, mix(seed, 1))
  /** Every batch applied so far, in order (replayed to other indexes). */
  private val batches = ArrayBuffer[IndexedSeq[(Int, Int, Int)]]()
  /** Ground-truth graph, updated by the benchmark itself. */
  private val truth = g.copyWeights()
  private var attempted = 0L
  private var failed = 0L
  private var firstFailure = ""
  private var measuredBatches = 0
  private val heap = new HeapGuard

  private def report(values: Seq[(String, Seq[Double])], metrics: Seq[Metric], notes: Seq[String]) =
    Report(values, metrics, attempted, failed, firstFailure, measuredBatches, notes)

  private def nextBatch(): IndexedSeq[(Int, Int, Int)] = {
    val b = stream.next()
    batches += b
    b.foreach { case (u, v, wt) => truth.setWeight(u, v, wt) }
    b
  }

  /** Check every stage against Dijkstra on this batch's seeded pairs. */
  private def check(b: Int, stages: Seq[(String, (Int, Int) => Int)]): Unit = {
    val p = Pairs(g.n, CheckPairs, mix(seed, 2, b))
    for (i <- 0 until p.length) {
      val d = Dijkstra.query(truth, p.s(i), p.t(i))
      stages.foreach { case (name, q) =>
        attempted += 1
        val got = q(p.s(i), p.t(i))
        if (got != d) {
          if (failed == 0) firstFailure = s"batch $b stage $name pair (${p.s(i)}, ${p.t(i)}): $got != $d"
          failed += 1
        }
      }
    }
  }

  /** Run batches: `WarmBatches` unmeasured, then measured ones until
    * `seconds` have passed (at least `MinBatches`).
    */
  private def batchLoop(apply: (Int, IndexedSeq[(Int, Int, Int)]) => Unit): Unit = {
    def one(b: Int): Unit = { heap.beforeBatch(); apply(b, nextBatch()); heap.afterBatch() }
    (0 until WarmBatches).foreach(one)
    val t0 = System.nanoTime()
    while (measuredBatches < MinBatches || (System.nanoTime() - t0) / 1e9 < seconds) {
      one(WarmBatches + measuredBatches)
      measuredBatches += 1
    }
  }

  private def measured[A](xs: Seq[A]): Seq[A] = xs.drop(WarmBatches)

  // ------------------------------------------------------------------
  // End-to-end run (no tracing)
  // ------------------------------------------------------------------

  def untraced(): Report = {
    var sol: Solution = null
    val setups = (1 to w.setups).map { _ =>
      sol = null
      System.gc()
      val t0 = System.nanoTime()
      sol = Engines.solution(w, g)
      (System.nanoTime() - t0) / 1e9
    }
    val walls, p50s, p99s = ArrayBuffer[Double]()
    val releases = ArrayBuffer[IndexedSeq[Double]]()
    batchLoop { (b, batch) =>
      val t0 = System.nanoTime()
      val stages = sol.applyBatch(batch)
      val wall = (System.nanoTime() - t0) / 1e9
      check(b, stages.map(s => s.label -> s.query))
      // Warm-up batches sample too (JIT), but only measured ones count.
      val q = latencies(sol.bestQuery, Pairs(g.n, BestPairsPerBatch, mix(seed, 3, b)), 2000).sorted
      if (b >= WarmBatches) {
        walls += wall
        p50s += Stats.tickPercentile(q, 50, NanoUs)
        p99s += Stats.tickPercentile(q, 99, NanoUs)
        releases += stages.map(_.availableFrom)
      }
    }
    val notes = releases.head.indices.map(j =>
      f"stage ${j + 1} released after ${Stats.median(releases.map(_(j)))}%.4f s (median over one JVM's batches)")
    report(Seq("setup_s" -> setups, "update_s" -> walls.toSeq, "query_p50_us" -> p50s.toSeq,
      "query_p99_us" -> p99s.toSeq, "index_entries" -> Seq(sol.indexEntries.toDouble)), Nil, notes)
  }

  // ------------------------------------------------------------------
  // Traced run (per-layer metrics)
  // ------------------------------------------------------------------

  def traced(outFile: Option[String]): Report = {
    val tr = new Tracer
    val out = ArrayBuffer[Metric]()
    def ms(name: String, xs: Seq[Double]) = out += Metric(name, Stats.median(xs) * 1e3, "ms")
    def tail(name: String, lat: Array[Double]): Unit = {
      require(Stats.highestPercentile(lat.length).exists(_ >= 99), s"$name: too few samples for p99")
      val s = lat.sorted
      out += Metric(s"${name}_p50_us", Stats.tickPercentile(s, 50, NanoUs), "us")
      out += Metric(s"${name}_p99_us", Stats.tickPercentile(s, 99, NanoUs), "us")
    }

    // --- the workload's own engine, every batch ---
    System.gc()
    val main = tr.span("setup")(Engines.build(w.engine, w, g, tr))
    val setupS = tr.last("setup").durNs / 1e9
    val uTimes = ArrayBuffer[Array[Double]]()
    val walls = ArrayBuffer[Double]()
    var gapMs = 0.0
    batchLoop { (b, batch) =>
      val t = tr.span("batch", b)(main.update(batch))
      val sp = tr.last("batch")
      tr.derivedChildren(sp, main.uStages.map(u => s"${main.layer}.$u"), t.toSeq)
      uTimes += t
      walls += sp.durNs / 1e9
      gapMs = math.max(gapMs, sp.durNs / 1e6 - t.last * 1e3)
      tr.span("check", b)(check(b, main.qStages.map(s => s.name -> s.query)))
    }
    val uDur = measured(uTimes.toSeq).map(t => t.indices.map(j => t(j) - (if (j == 0) 0.0 else t(j - 1))))
    val rel = main.qStages.map(s => Stats.median(measured(uTimes.toSeq).map(_(s.after))))
    val profiles = main.qStages.zip(rel).map { case (s, r) =>
      val lat = tr.span(s"query.${main.layer}.${s.name}")(
        latencies(s.query, Pairs(g.n, 20000, mix(seed, 20 + s.after)), 50, SampleBudgetS))
      StageProfile(r, lat.map(_ / 1e6), s.name)
    }
    val lambda = tr.span("throughput.queuesim")(QueueSim.maxThroughput(profiles, w.deltaT, w.rqStar, seed))
    out += Metric("interval_query_us", Stats.intervalLatency(rel, profiles.map(_.mean), w.deltaT) * 1e6, "us")
    val notes = main.qStages.zip(profiles).map { case (s, p) =>
      f"stage ${s.name} released after ${p.availableFrom}%.4f s, mean ${p.mean * 1e6}%.3f us (${p.samples.length} queries)"
    }
    tail("core.sp.bidij", profiles.head.samples.map(_ * 1e6))
    ms("core.td.shortcut_ms", uDur.map(_(1)))

    // --- standalone kernels on a fresh copy fed the same batches ---
    val gr = g.copyWeights()
    val td = tr.span("core.td.mde")(MDE.decompose(gr.n, gr.undirectedEdges))
    val pr = tr.span("partition.spatial")(SpatialPartitioner.partition(gr, w.k))
    val tdp = tr.span("partition.td")(TDPartitioner.partition(td, w.tau, w.ke))
    val upd = new ShortcutUpdater(td)
    val lab = new H2HIndex(td)
    tr.span("core.h2h.build")(lab.build())
    td.buildLca()
    val ch = new CHQuery(UpwardGraph.fromTD(td))
    val scMs, labMs, affected, changed, recomputed = ArrayBuffer[Double]()
    batches.take(ReplayBatches).zipWithIndex.foreach { case (batch, b) =>
      batch.foreach { case (u, v, wt) => gr.setWeight(u, v, wt) }
      val res = tr.span("core.td.shortcut_replay", b)(upd.applyInputChanges(batch))
      scMs += tr.last("core.td.shortcut_replay").durNs / 1e9
      val moved = tr.span("core.h2h.label_update", b)(lab.updateSubtrees(res.affected))
      labMs += tr.last("core.h2h.label_update").durNs / 1e9
      affected += res.affected.length; changed += moved.length
      recomputed += subtreeSize(td, res.affected)
    }
    val qp = Pairs(g.n, 20000, mix(seed, 30))
    val lca = tr.span("query.core.td.lca")(latencies((s, t) => td.lca(s, t), qp, 2000)).sorted
    val chLat = tr.span("query.core.h2h.ch")(latencies(ch.query, qp, 200, SampleBudgetS))
    out ++= Seq(
      Metric("core.td.mde_s", tr.last("core.td.mde").durNs / 1e9, "s"),
      Metric("core.td.height", td.height, "count", isCount = true),
      Metric("core.td.max_bag", td.maxBagSize, "count", isCount = true),
      Metric("core.td.affected", Stats.median(affected.toSeq), "count"),
      Metric("core.td.lca_p50_us", Stats.tickPercentile(lca, 50, NanoUs), "us"))
    ms("core.td.replay_shortcut_ms", scMs.toSeq)
    out ++= Seq(
      Metric("core.h2h.build_s", tr.last("core.h2h.build").durNs / 1e9, "s"),
      Metric("core.h2h.labels_changed", Stats.median(changed.toSeq), "count"),
      Metric("core.h2h.labels_recomputed", Stats.median(recomputed.toSeq), "count"),
      Metric("core.h2h.useful_ratio", changed.sum / math.max(1.0, recomputed.sum), "ratio"))
    ms("core.h2h.label_update_ms", labMs.toSeq)
    tail("core.h2h.ch", chLat)
    out ++= Seq(
      Metric("partition.spatial_s", tr.last("partition.spatial").durNs / 1e9, "s"),
      Metric("partition.boundary", pr.boundaryCount, "count", isCount = true),
      Metric("partition.td_s", tr.last("partition.td").durNs / 1e9, "s"),
      Metric("partition.k", tdp.k, "count", isCount = true),
      Metric("partition.overlay", tdp.overlayCount, "count", isCount = true))

    // --- PMHL and PostMHL layers: the main engine's batches, or a short
    //     pass over the first batches when the workload runs another engine
    for (engine <- Seq("PMHL", "PostMHL")) {
      val (e, durs) =
        if (engine == w.engine) (main, uDur)
        else {
          System.gc()
          val e = tr.span("side.setup")(Engines.build(engine, w, g, tr))
          val d = batches.take(SideBatches).zipWithIndex.map { case (batch, b) =>
            val t = tr.span("side.batch", b)(e.update(batch))
            tr.derivedChildren(tr.last("side.batch"), e.uStages.map(u => s"${e.layer}.$u"), t.toSeq)
            t.indices.map(j => t(j) - (if (j == 0) 0.0 else t(j - 1)))
          }
          (e, d.toSeq)
        }
      val steps = tr.all.filter(s => s.derived && s.name.startsWith(s"${e.layer}.build."))
      steps.foreach { s =>
        val step = s.name.stripPrefix(s"${e.layer}.build.")
        if (!Set("mde", "td_partition")(step)) out += Metric(s"${s.name}_s", s.durNs / 1e9, "s")
      }
      e.uStages.indices.foreach(j => ms(s"${e.layer}.${e.uStages(j)}_ms", durs.map(_(j))))
      e.qStages.filter(_.name != "bidij").foreach { s =>
        val lat = tr.span(s"query.${e.layer}.${s.name}")(
          latencies(s.query, Pairs(g.n, 20000, mix(seed, 40 + s.after)), 200, SampleBudgetS))
        tail(s"${e.layer}.q.${s.name}", lat)
      }
      e.counters().foreach { case (k, v) => out += Metric(s"${e.layer}.$k", v.toDouble, "count", isCount = true) }
    }
    out += Metric("throughput.lambda_q", lambda, "1/s")
    out ++= Seq(
      Metric("trace.setup_s", setupS, "s"),
      Metric("trace.update_s", Stats.median(measured(walls.toSeq)), "s"),
      Metric("trace.batch_gap_ms", gapMs, "ms"))

    outFile.foreach { path =>
      val f = new java.io.File(path)
      f.getAbsoluteFile.getParentFile.mkdirs()
      val pw = new java.io.PrintWriter(f, "UTF-8")
      try pw.println(Trace.toJson(tr.all)) finally pw.close()
      System.err.println(s"spans written to $f")
    }
    report(Nil, out.toSeq, notes)
  }

  /** Vertices under the topmost affected vertices: what a top-down label
    * update recomputes.
    */
  private def subtreeSize(td: TD, affected: Array[Int]): Double = {
    val mark = new Array[Boolean](td.n)
    affected.foreach(mark(_) = true)
    var count = 0L
    val stack = new java.util.ArrayDeque[Integer]()
    affected.foreach { v =>
      var a = td.parent(v); var top = true
      while (a != -1 && top) { if (mark(a)) top = false; a = td.parent(a) }
      if (top) stack.push(v)
    }
    while (!stack.isEmpty) {
      val v = stack.pop().intValue()
      count += 1
      td.children(v).foreach(c => stack.push(c))
    }
    count.toDouble
  }
}
