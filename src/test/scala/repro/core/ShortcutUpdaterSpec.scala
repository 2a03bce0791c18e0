package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Datasets, GridGen, RoadGraph}
import repro.core.td.{MDE, ShortcutUpdater, TD}
import repro.core.h2h.{CHQuery, H2HIndex, UpwardGraph}
import repro.core.sp.Dijkstra
import scala.util.Random

/** Dynamic maintenance: DCH-style shortcut update + DH2H-style label update
  * must reproduce a from-scratch rebuild after arbitrary weight changes.
  */
class ShortcutUpdaterSpec extends AnyFunSuite {

  private def batches(g: RoadGraph, rounds: Int, per: Int, seed: Long) =
    (1 to rounds).map(r => Datasets.updateBatch(g, per, seed + r))

  /** Shared scenario: apply batches, maintain incrementally, compare. */
  private def runScenario(g: RoadGraph, seed: Long, rounds: Int = 4, per: Int = 12): Unit = {
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val upd = new ShortcutUpdater(td)
    val h = new H2HIndex(td); h.build()
    val ch = new CHQuery(UpwardGraph.fromTD(td))
    val rnd = new Random(seed * 7 + 1)
    for (batch <- batches(g, rounds, per, seed)) {
      Datasets.applyBatch(g, batch)
      val res = upd.applyInputChanges(batch)
      h.updateSubtrees(res.affected)
      // sc arrays must equal a fresh decomposition with the same order
      val fresh = MDE.decompose(g.n, g.undirectedEdges,
        forcedLast = Array.fill(g.n)(true), forcedRank = td.rank)
      for (v <- 0 until g.n) {
        assert(fresh.bag(v).sameElements(td.bag(v)), s"bag mismatch at $v")
        assert(fresh.sc(v).sameElements(td.sc(v)), s"sc mismatch at $v")
      }
      // queries exact after maintenance
      for (_ <- 1 to 60) {
        val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
        val truth = Dijkstra.query(g, s, t)
        assert(ch.query(s, t) == truth, s"CH ($s,$t)")
        assert(h.query(s, t) == truth, s"H2H ($s,$t)")
      }
    }
  }

  test("maintenance matches rebuild on a grid (mixed inc/dec batches)") {
    runScenario(GridGen.grid(6, 9, seed = 41), seed = 100)
  }

  test("maintenance matches rebuild on a long corridor grid") {
    runScenario(GridGen.grid(4, 30, seed = 42), seed = 200)
  }

  test("maintenance matches rebuild on random graphs") {
    runScenario(GridGen.randomConnected(70, 50, seed = 43), seed = 300)
    runScenario(GridGen.randomConnected(35, 8, seed = 44), seed = 400)
  }

  test("pure decrease and pure increase batches") {
    val g = GridGen.grid(5, 12, seed = 45)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val upd = new ShortcutUpdater(td)
    val h = new H2HIndex(td); h.build()
    val ch = new CHQuery(UpwardGraph.fromTD(td))
    val rnd = new Random(46)
    val edges = g.undirectedEdges
    def checkAll(): Unit = for (_ <- 1 to 50) {
      val s = rnd.nextInt(g.n); val t = rnd.nextInt(g.n)
      val truth = Dijkstra.query(g, s, t)
      assert(ch.query(s, t) == truth && h.query(s, t) == truth, s"($s,$t)")
    }
    // all decrease
    val dec = rnd.shuffle(edges.toList).take(20).map { case (u, v, w) => (u, v, math.max(1, w / 3)) }
    Datasets.applyBatch(g, dec)
    h.updateSubtrees(upd.applyInputChanges(dec).affected)
    checkAll()
    // all increase
    val inc = rnd.shuffle(edges.toList).take(20).map { case (u, v, _) => (u, v, g.weight(u, v) * 4) }
    Datasets.applyBatch(g, inc)
    h.updateSubtrees(upd.applyInputChanges(inc).affected)
    checkAll()
    // revert to original weights entirely
    val revert = edges.map { case (u, v, w) => (u, v, w) }
    Datasets.applyBatch(g, revert)
    h.updateSubtrees(upd.applyInputChanges(revert).affected)
    val freshTd = MDE.decompose(g.n, g.undirectedEdges,
      forcedLast = Array.fill(g.n)(true), forcedRank = td.rank)
    for (v <- 0 until g.n) assert(freshTd.sc(v).sameElements(td.sc(v)))
    checkAll()
  }

  test("affected set is sound: labels outside affected subtrees unchanged") {
    val g = GridGen.grid(6, 8, seed = 47)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val upd = new ShortcutUpdater(td)
    val h = new H2HIndex(td); h.build()
    val before = (0 until g.n).map(v => h.dis(v).clone())
    val batch = Datasets.updateBatch(g, 10, seed = 48)
    Datasets.applyBatch(g, batch)
    val res = upd.applyInputChanges(batch)
    val changed = h.updateSubtrees(res.affected).toSet
    val inAffectedSubtree = (0 until g.n).filter(v =>
      res.affected.exists(a => td.isAncestorOrSelf(a, v))).toSet
    for (v <- 0 until g.n if !inAffectedSubtree(v))
      assert(h.dis(v).sameElements(before(v)), s"label of untouched $v changed")
    assert(changed.subsetOf(inAffectedSubtree))
  }

  test("overlay phase-1 tracking reports boundary-graph changes (PMHL U-Stage 2 hook)") {
    val g = GridGen.grid(6, 10, seed = 49)
    // choose an arbitrary boundary set
    val boundary = new Array[Boolean](g.n)
    val rnd = new Random(50)
    (1 to 12).foreach(_ => boundary(rnd.nextInt(g.n)) = true)
    val td = MDE.decompose(g.n, g.undirectedEdges, forcedLast = boundary)
    val upd = new ShortcutUpdater(td, boundary)
    // initial overlay input must equal MDE.phase1 of the non-boundary set
    val nonB = boundary.map(!_)
    def canon(e: Iterable[(Int, Int, Int)]) =
      e.map { case (u, v, w) => (math.min(u, v), math.max(u, v), w) }.toSet
    assert(canon(upd.overlayInputEdges()) == canon(MDE.phase1(g.n, g.undirectedEdges, nonB)))
    // after updates, incrementally-maintained overlay input equals recomputed phase1
    for (r <- 1 to 3) {
      val batch = Datasets.updateBatch(g, 15, seed = 60 + r)
      Datasets.applyBatch(g, batch)
      upd.applyInputChanges(batch)
      assert(canon(upd.overlayInputEdges()) == canon(MDE.phase1(g.n, g.undirectedEdges, nonB)),
        s"round $r")
    }
  }

  test("affected is exactly the owners whose shortcut row changed") {
    for ((g, seed) <- Seq((GridGen.grid(6, 9, seed = 51), 510L),
                          (GridGen.randomConnected(60, 40, seed = 52), 520L))) {
      val td = MDE.decompose(g.n, g.undirectedEdges)
      val upd = new ShortcutUpdater(td)
      var revert: Seq[(Int, Int, Int)] = Nil
      for (r <- 0 until 4) {
        // round 2 restores the edges round 0 changed
        val batch = if (r == 2) revert else Datasets.updateBatch(g, 12, seed + r)
        if (r == 0) revert = batch.map { case (u, v, _) => (u, v, g.weight(u, v)) }
        val before = td.sc.map(_.clone())
        Datasets.applyBatch(g, batch)
        val affected = upd.applyInputChanges(batch).affected
        val changed = (0 until g.n).filter(v => !td.sc(v).sameElements(before(v)))
        assert(changed.nonEmpty, s"n=${g.n} round $r changed no shortcut")
        assert(affected.toSeq.sorted == changed, s"n=${g.n} round $r")
      }
    }
  }

  test("phase-1 changes are reported for boundary slots whose shortcut did not change") {
    val g = GridGen.grid(6, 10, seed = 53)
    val boundary = new Array[Boolean](g.n)
    val rnd = new Random(54)
    (1 to 12).foreach(_ => boundary(rnd.nextInt(g.n)) = true)
    val td = MDE.decompose(g.n, g.undirectedEdges, forcedLast = boundary)
    val upd = new ShortcutUpdater(td, boundary)
    var phase1Only = 0
    for (r <- 1 to 3) {
      val batch = Datasets.updateBatch(g, 15, seed = 70 + r)
      val before = td.sc.map(_.clone())
      Datasets.applyBatch(g, batch)
      val res = upd.applyInputChanges(batch)
      phase1Only += res.overlayChanges.count { case (o, b, _) =>
        val i = td.slotOf(o, b)
        td.sc(o)(i) == before(o)(i)
      }
    }
    assert(phase1Only > 0, "no overlay change came from a slot whose shortcut stayed put")
  }
}
