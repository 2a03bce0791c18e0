package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen}
import repro.core.postmhl.PostMHL
import repro.core.td.{MDE, ShortcutUpdater}
import scala.util.Random

/** PostMHL's U-Stage 2 sweeps the partitions in parallel and hands the
  * overlay owners they mark to one overlay sweep. Its maintained shortcut
  * arrays must equal a fresh decomposition in the same vertex order, and a
  * plain single-sweep updater, after every batch.
  */
class PostMHLShortcutSpec extends AnyFunSuite {

  test("PostMHL shortcut arrays equal a rebuild after each batch (deferred overlay slots)") {
    val g = GridGen.grid(6, 30, seed = 83)
    val original = g.undirectedEdges
    // A plain updater on the same decomposition shows that the batches
    // really change overlay owners through the hand-off.
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

    var handedOff = 0
    for ((batch, b) <- batches.zipWithIndex) {
      val changed = mirror.applyInputChanges(batch).affected
      val seeded = batch.map { case (u, v, _) => mirror.td.pairOwner(u, v) }.toSet
      val partChanged = changed.filter(p.partOf(_) != -1)
      // overlay owners that changed without a seed of their own, below a
      // changed partition owner whose bag holds them
      handedOff += changed.count(o => p.partOf(o) == -1 && !seeded(o) &&
        partChanged.exists(w => mirror.td.bag(w).contains(o)))

      p.applyUpdateBatch(batch)
      val fresh = MDE.decompose(g.n, g.undirectedEdges,
        forcedLast = Array.fill(g.n)(true), forcedRank = p.td.rank)
      for (v <- 0 until g.n) {
        assert(fresh.bag(v).sameElements(p.td.bag(v)), s"batch $b: bag mismatch at $v")
        assert(fresh.sc(v).sameElements(p.td.sc(v)), s"batch $b: sc mismatch at $v")
        assert(mirror.td.sc(v).sameElements(p.td.sc(v)), s"batch $b: mirror mismatch at $v")
      }
    }
    assert(handedOff > 0, "no batch changed an unseeded overlay owner from a partition owner")
    assert(original.forall { case (u, v, w) => !first.exists(e => e._1 == u && e._2 == v) ||
      g.weight(u, v) == w }, "revert batch did not restore the first batch's edges")
  }
}
