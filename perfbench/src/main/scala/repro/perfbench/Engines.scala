package repro.perfbench

import repro.baseline.{MHLSolution, PMHLSolution, PostMHLSolution, QueryStage, Solution}
import repro.core.pmhl.PMHL
import repro.core.postmhl.PostMHL
import repro.graph.RoadGraph

/** A query stage as the traced run sees it: released when U-stage
  * `after` (0-based) completes.
  */
final case class QStage(name: String, after: Int, query: (Int, Int) => Int)

/** A maintained index driven stage by stage. `update` returns the
  * cumulative completion time (seconds from batch arrival) of each U-stage.
  */
final class Engine(
    val layer: String,
    val uStages: IndexedSeq[String],
    val qStages: IndexedSeq[QStage],
    val update: Seq[(Int, Int, Int)] => Array[Double],
    val counters: () => Seq[(String, Long)] = () => Nil,
)

object Engines {
  import Workloads.Threads

  private val u5 = IndexedSeq("u1", "u2", "u3", "u4", "u5")

  /** The public `Solution` of a workload's engine (untraced runs). */
  def solution(w: Workload, g: RoadGraph): Solution = w.engine match {
    case "PostMHL" => new PostMHLSolution(g, w.tau, w.ke, Threads)
    case "PMHL"    => new PMHLSolution(g, w.k, Threads)
    case "MHL"     => new MHLSolution(g)
  }

  /** Build `engine` on a private copy of `g` under a span named after its
    * layer, with the build steps the program reports as derived children.
    */
  def build(engine: String, w: Workload, g: RoadGraph, tr: Tracer): Engine = engine match {
    case "PMHL" =>
      val layer = "core.pmhl"
      val idx = tr.span(s"$layer.build") {
        // The constructor runs SpatialPartitioner; build() returns the
        // wall seconds of its steps, which PMHLSolution discards.
        val p = tr.span(s"$layer.build.partition")(new PMHL(g.copyWeights(), w.k, Threads))
        val steps = tr.span(s"$layer.build.steps")(p.build())
        tr.derivedChildren(tr.last(s"$layer.build.steps"),
          Seq("ov_input", "overlay", "partitions", "post", "cross").map(s => s"$layer.build.$s"),
          steps.scanLeft(0.0)(_ + _).tail.toSeq)
        p
      }
      new Engine(layer, u5, IndexedSeq(
        QStage("bidij", 0, idx.queryBiDijkstra), QStage("pch", 1, idx.queryPCH),
        QStage("nob", 2, idx.queryNoBoundary), QStage("postb", 3, idx.queryPostBoundary),
        QStage("crossb", 4, idx.queryCrossBoundary)),
        b => idx.applyUpdateBatch(b).t.clone(),
        () => Seq("cross_entries" -> idx.cross.labelEntries))
    case "PostMHL" =>
      val layer = "core.postmhl"
      val idx = tr.span(s"$layer.build")(new PostMHL(g.copyWeights(), w.tau, w.ke, 0.1, 2.0, Threads))
      tr.derivedChildren(tr.last(s"$layer.build"),
        Seq("mde", "td_partition", "overlay", "post", "cross").map(s => s"$layer.build.$s"),
        idx.buildTimes.scanLeft(0.0)(_ + _).tail.toSeq)
      // PostMHLSolution drops U3 from its stage list; the index reports all five.
      new Engine(layer, u5, IndexedSeq(
        QStage("bidij", 0, idx.queryBiDijkstra), QStage("pch", 1, idx.queryPCH),
        QStage("post", 3, idx.queryPost), QStage("full", 4, idx.queryFull)),
        b => idx.applyUpdateBatch(b).t.clone())
    case "MHL" =>
      val layer = "core.mhl"
      val sol = tr.span(s"$layer.build")(new MHLSolution(g))
      // MHL's stage closures are only reachable through applyBatch; they
      // read the live index, so the latest batch's closures serve all.
      var stages: IndexedSeq[QueryStage] = IndexedSeq.empty
      def stage(j: Int): (Int, Int) => Int = (s, t) => stages(j).query(s, t)
      new Engine(layer, IndexedSeq("u1", "u2", "u3"), IndexedSeq(
        QStage("bidij", 0, stage(0)), QStage("ch", 1, stage(1)), QStage("h2h", 2, sol.bestQuery)),
        b => { stages = sol.applyBatch(b); stages.map(_.availableFrom).toArray })
  }
}
