package repro.baseline

import repro.graph.RoadGraph
import repro.core.pmhl.PMHL
import repro.core.postmhl.PostMHL

/** PMHL (§V) as a Solution: the first `stages` of its five query stages,
  * each released when the U-stage before it completes.
  */
class PMHLSolution(g0: RoadGraph, k: Int, threads: Int, stages: Int = 5) extends Solution {
  val graph: RoadGraph = g0.copyWeights()
  val name: String = "PMHL"
  val index = new PMHL(graph, k, threads, stages)
  val buildSeconds: Double = {
    val t0 = System.nanoTime()
    index.build()
    (System.nanoTime() - t0) / 1e9
  }
  def indexEntries: Long = index.indexEntries
  private val queries = IndexedSeq[(String, (Int, Int) => Int)](
    "BiDij" -> index.queryBiDijkstra, "PCH" -> index.queryPCH,
    "NoB-H2H" -> index.queryNoBoundary, "PostB-H2H" -> index.queryPostBoundary,
    "CrossB-H2H" -> index.queryCrossBoundary).take(stages)
  def applyBatch(batch: Seq[(Int, Int, Int)]): IndexedSeq[QueryStage] = {
    val st = index.applyUpdateBatch(batch)
    queries.zip(st.t).map { case ((label, q), t) => QueryStage(t, label, q) }
  }
  def bestQuery(s: Int, t: Int): Int = stages match {
    case 2 => index.queryPCH(s, t)
    case 4 => index.queryPostBoundary(s, t)
    case _ => index.queryCrossBoundary(s, t)
  }
}

/** N-CH-P [35]: the update-oriented no-boundary PSP index — PMHL stopped
  * after U-Stage 2: partition and overlay shortcut arrays queried by PCH,
  * no distance labels.
  */
final class NCHPSolution(g0: RoadGraph, k: Int, threads: Int)
    extends PMHLSolution(g0, k, threads, stages = 2) { override val name = "N-CH-P" }

/** P-TD-P [35]: the query-oriented post-boundary PSP index — PMHL stopped
  * after U-Stage 4, without the cross-boundary strategy (its best query
  * concatenates partition and overlay labels for cross-partition pairs).
  */
final class PTDPSolution(g0: RoadGraph, k: Int, threads: Int)
    extends PMHLSolution(g0, k, threads, stages = 4) { override val name = "P-TD-P" }

/** PostMHL (§VI) as a Solution. `released` lists the query stages it
  * releases in order, each as the U-stage (0-based) after which it serves
  * and its label; the index runs past U2 only if a stage needs it. The
  * default is PostMHL's four stages (Figure 9).
  */
class PostMHLSolution(g0: RoadGraph, tau: Int, ke: Int, threads: Int,
                      val name: String = "PostMHL",
                      released: Seq[(Int, String)] =
                        Seq(0 -> "BiDij", 1 -> "PCH", 3 -> "PostB-H2H", 4 -> "CrossB-H2H"))
    extends Solution {
  val graph: RoadGraph = g0.copyWeights()
  private val t0 = System.nanoTime()
  val index = new PostMHL(graph, tau, ke, 0.1, 2.0, threads, stages = if (released.last._1 < 2) 2 else 5)
  val buildSeconds: Double = (System.nanoTime() - t0) / 1e9
  def indexEntries: Long = index.indexEntries
  /** The fastest query served once U-stage u (0-based) completes. */
  private val servedAfter = IndexedSeq[(Int, Int) => Int](
    index.queryBiDijkstra, index.queryPCH, index.queryPCH, index.queryPost, index.queryFull)
  def applyBatch(batch: Seq[(Int, Int, Int)]): IndexedSeq[QueryStage] = {
    val st = index.applyUpdateBatch(batch)
    released.map { case (u, label) => QueryStage(st.t(u), label, servedAfter(u)) }.toIndexedSeq
  }
  def bestQuery(s: Int, t: Int): Int =
    if (index.stages == 2) index.queryPCH(s, t) else index.queryFull(s, t)
}
