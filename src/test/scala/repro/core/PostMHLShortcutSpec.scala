package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen}
import repro.core.postmhl.PostMHL
import repro.core.td.{MDE, ShortcutUpdater}
import scala.util.Random

/** PostMHL's U-Stage 2 runs the partitions in parallel and hands the
  * overlay slots they reach to a second pass as forced rescans. Its
  * maintained shortcut arrays must equal a fresh decomposition in the same
  * vertex order after every batch.
  */
class PostMHLShortcutSpec extends AnyFunSuite {

  test("PostMHL shortcut arrays equal a rebuild after each batch (deferred overlay slots)") {
    val g = GridGen.grid(6, 30, seed = 83)
    val original = g.undirectedEdges
    // A plain updater on the same decomposition, driven like U-Stage 2,
    // shows that the batches really defer overlay slots.
    val mirror = new ShortcutUpdater(MDE.decompose(g.n, original))
    val p = new PostMHL(g, tau = 12, ke = 8, betaL = 0.1, betaU = 2.0, threads = 4)
    assert(p.k >= 2, s"want multiple partitions, got k=${p.k}")
    assert(mirror.td.rank.sameElements(p.td.rank))

    val rnd = new Random(3)
    val first = Datasets.updateBatch(g, 40, seed = 3001)
    val (ru, rv, rw) = original(rnd.nextInt(original.size))
    val repeated = Datasets.updateBatch(g, 30, seed = 3002) ++
      Seq((ru, rv, rw * 3), (ru, rv, math.max(1, rw / 2)), (ru, rv, rw * 5))
    val revert = first.map { case (u, v, _) => (u, v, g.weight(u, v)) }
    val batches = Seq(first, repeated, Datasets.updateBatch(g, 50, seed = 3003), revert)

    var deferred = 0
    for ((batch, b) <- batches.zipWithIndex) {
      val seeds = mirror.seed(batch)
      val byPart = seeds.groupBy(e => p.partOf(mirror.td.order((e >>> 20).toInt)))
      val handOff = byPart.keys.filter(_ != -1).toSeq.flatMap(i =>
        mirror.process(byPart(i), o => p.partOf(o) == i).deferredSlots)
      deferred += handOff.length
      mirror.process(byPart.getOrElse(-1, IndexedSeq.empty), o => p.partOf(o) == -1,
        rescanSeeds = handOff.distinct.toIndexedSeq)

      p.applyUpdateBatch(batch)
      val fresh = MDE.decompose(g.n, g.undirectedEdges,
        forcedLast = Array.fill(g.n)(true), forcedRank = p.td.rank)
      for (v <- 0 until g.n) {
        assert(fresh.bag(v).sameElements(p.td.bag(v)), s"batch $b: bag mismatch at $v")
        assert(fresh.sc(v).sameElements(p.td.sc(v)), s"batch $b: sc mismatch at $v")
        assert(mirror.td.sc(v).sameElements(p.td.sc(v)), s"batch $b: mirror mismatch at $v")
      }
    }
    assert(deferred > 0, "no batch deferred an overlay slot")
    assert(original.forall { case (u, v, w) => !first.exists(e => e._1 == u && e._2 == v) ||
      g.weight(u, v) == w }, "revert batch did not restore the first batch's edges")
  }
}
