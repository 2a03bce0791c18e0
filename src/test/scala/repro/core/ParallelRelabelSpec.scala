package repro.core

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.{Seconds, Span}
import repro.graph.{Datasets, GridGen, RoadGraph}
import repro.core.h2h.{H2HIndex, UpwardGraph}
import repro.core.pmhl.PMHL
import repro.core.td.{MDE, ShortcutUpdater, TD}
import repro.partition.TDPartitioner
import scala.jdk.CollectionConverters._

/** `H2HIndex.relabel` on several threads computes each row in column
  * blocks. For every thread count it must give rows bit-identical to the
  * serial walk's and the same changed vertices in the same walk order,
  * through `relabel` itself and through `updateSubtrees`' subtree pass; it
  * must not write into a published row, and a failing block must end the
  * call with its exception and leave `dis` untouched.
  */
class ParallelRelabelSpec extends AnyFunSuite with TimeLimits {

  private val Threads = Seq(1, 2, 3, 4)
  private implicit val signaler: Signaler = ThreadSignaler

  /** Runs `call(h, p)` on `idx(k)` with p = `Threads(k)`, the indexes
    * holding equal labels, and checks every result against p = 1's.
    */
  private def sameAsSerial(what: String, idx: Seq[H2HIndex])(call: (H2HIndex, Int) => Array[Int]): Int = {
    val res = Threads.zip(idx).map { case (p, h) =>
      val refs = h.dis.clone()
      val snap = refs.map(r => if (r == null) null else r.clone())
      val changed = call(h, p)
      for (v <- refs.indices)
        assert(java.util.Arrays.equals(refs(v), snap(v)), s"$what, p = $p: row $v written in place")
      (p, h, changed)
    }
    val (_, h1, c1) = res.head
    for ((p, h, c) <- res.tail) {
      for (v <- h1.dis.indices)
        assert(java.util.Arrays.equals(h1.dis(v), h.dis(v)), s"$what, p = $p: row $v differs from p = 1")
      assert(c.toSeq == c1.toSeq, s"$what, p = $p: changed vertices differ from p = 1")
    }
    c1.length
  }

  /** Builds one index per thread count over `td` with `relabel(tops,
    * descend, p)`, then runs `batches` batches of `size` reweights of `g`
    * through the shortcut sweep and the subtree pass of `updateSubtrees` on
    * the affected vertices `descend` admits.
    */
  private def check(what: String, g: RoadGraph, td: UpwardGraph, upd: ShortcutUpdater,
                    tops: Array[Int], descend: Int => Boolean,
                    batches: Int, size: Int, seed: Long): Unit = {
    val idx = Threads.map(_ => new H2HIndex(td))
    val built = sameAsSerial(s"$what build", idx)((h, p) => h.relabel(tops, descend, p))
    assert(built > 0, s"$what: the build labelled nothing")
    var moved = 0
    var deepTops = 0
    for (b <- 1 to batches) {
      val batch = Datasets.updateBatch(g, size, seed + b)
      Datasets.applyBatch(g, batch)
      val affected = upd.applyInputChanges(batch).affected.filter(descend)
      deepTops += td.subtreeTops(affected).count(td.depth(_) > 0)
      moved += sameAsSerial(s"$what batch $b", idx)((h, p) =>
        h.updateSubtrees(affected, descend, H2HIndex.Subtree, p))
    }
    assert(moved > 0, s"$what: no label moved")
    assert(deepTops > 0, s"$what: every subtree top was a root, so no row above a top came from dis")
  }

  private def decomposed(g: RoadGraph): (TD, ShortcutUpdater) = {
    val td = MDE.decompose(g.n, g.undirectedEdges)
    (td, new ShortcutUpdater(td))
  }

  test("random grid TDs: every thread count gives the serial rows") {
    for ((w, l, seed) <- Seq((4, 30, 1L), (6, 40, 2L), (8, 25, 3L), (5, 60, 4L))) {
      val g = GridGen.grid(w, l, seed = seed)
      val (td, upd) = decomposed(g)
      val h = new H2HIndex(td)
      val blocks = h.columnBlocks(td.roots, _ => true, 4)
      assert(blocks != null && blocks.cuts.length == 5, s"grid $w×$l: want 4 column blocks")
      check(s"grid $w×$l", g, td, upd, td.roots, _ => true, 8, g.n / 20, 100 * seed)
    }
  }

  test("PostMHL's overlay filter: only the overlay rows, the same as serial") {
    val g = Datasets.NY.build()
    val (td, upd) = decomposed(g)
    val tdp = TDPartitioner.partition(td, Datasets.NY.tau, Datasets.NY.ke)
    assert(tdp.k >= 2, s"want partitions, got k = ${tdp.k}")
    val overlay: Int => Boolean = tdp.partOf(_) == -1
    check("overlay", g, td, upd, td.roots.filter(overlay), overlay, 10, g.n / 50, 1900)
  }

  test("PMHL's boundary filter over T*: the same as serial") {
    val g = Datasets.NY.build()
    val pm = new PMHL(g, 4, threads = 2); pm.build()
    val star = pm.labOv.td
    val boundary: Int => Boolean = pm.boundary(_)
    val idx = Threads.map(_ => new H2HIndex(star))
    assert(sameAsSerial("T* boundary rows", idx)((h, p) =>
      h.relabel(star.roots.filter(boundary), boundary, p)) > 0)
    for (v <- 0 until g.n if pm.boundary(v))
      assert(java.util.Arrays.equals(idx.last.dis(v), pm.labOv.dis(v)), s"boundary row $v")
  }

  test("a disconnected forest: the same as serial") {
    val g = DisconnectedSpec.twoGrids()
    val (td, upd) = decomposed(g)
    assert(td.roots.length >= 2, "want a forest")
    check("two grids", g, td, upd, td.roots, _ => true, 10, 20, 2000)
  }

  test("more tasks than the tree has columns") {
    val g = GridGen.grid(2, 3, seed = 5)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val h = new H2HIndex(td)
    val blocks = h.columnBlocks(td.roots, _ => true, 16)
    assert(blocks == null || blocks.cuts.length - 1 <= td.height - 1)
    val idx = Threads.map(_ => new H2HIndex(td))
    sameAsSerial("tiny grid", idx)((h, p) => h.relabel(td.roots, _ => true, if (p == 1) 1 else td.height + p))
  }

  test("a failing block ends relabel(threads = 4) with its exception and publishes no row") {
    val g = GridGen.grid(6, 40, seed = 6)
    val td = MDE.decompose(g.n, g.undirectedEdges)
    val good = new H2HIndex(td); good.build()
    // A row at depth 1 has only column 0, so only the first block computes
    // it; every other block waits on the first below that row.
    val v = (0 until td.n).find(x => td.depth(x) == 1 && td.children(x).nonEmpty).get
    val sc = td.sc.clone(); sc(v) = Array.emptyIntArray
    val bad = new UpwardGraph(td.parent, td.depth, td.bag, sc)
    val h = new H2HIndex(bad)
    System.arraycopy(good.dis, 0, h.dis, 0, td.n)
    assert(h.columnBlocks(bad.roots, _ => true, 4).cuts.length == 5)
    failAfter(Span(60, Seconds)) {
      intercept[ArrayIndexOutOfBoundsException](h.relabel(bad.roots, _ => true, 4))
    }
    for (x <- 0 until td.n) assert(h.dis(x) eq good.dis(x), s"row $x published after a failure")
    val spinning = Thread.getAllStackTraces.asScala.collect {
      case (t, st) if t.getName.startsWith("repro-par-") && st.exists(_.getClassName.contains("H2HIndex")) => t.getName
    }
    assert(spinning.isEmpty, s"pool threads still in H2HIndex: $spinning")
  }
}
