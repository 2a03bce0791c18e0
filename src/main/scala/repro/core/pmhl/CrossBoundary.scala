package repro.core.pmhl

import repro.core.h2h.{H2HIndex, UpwardGraph}
import repro.util.Parallel
import scala.collection.mutable

/** PMHL cross-boundary index `L*` (§IV-A, Algorithm 1): the H2H labels
  * [22] of the cross-boundary tree T*, one [[H2HIndex]] over it.
  *
  * T* aggregates the overlay tree and the partition trees: a boundary
  * vertex keeps its overlay parent and bag, a non-boundary vertex its
  * partition-tree parent and bag (the parent is another non-boundary
  * vertex or a boundary vertex of its partition, the attach point).
  * [[PMHL]] builds T* once, as the [[UpwardGraph]] its PCH stage walks
  * too, and passes it in. Every bag member is a T* ancestor, so the labels
  * follow the plain H2H recurrence over T* (Theorem 3; see DESIGN.md
  * correctness notes):
  *
  *  - the rows of boundary vertices are the overlay index (Lemma 2): they
  *    alias `labOv.dis`, re-linked at the start of [[buildAll]] and of
  *    [[update]], because U-Stage 3 replaces the overlay rows it recomputes;
  *  - the non-boundary subtrees are walked top-down from their attach
  *    points by [[H2HIndex.walk]] with [[H2HIndex.computeDis]], one
  *    partition per task.
  *
  * Queries are [[H2HIndex.query]]: 2-hop H2H over T*, with the LCA's T*
  * bag as the hub set.
  */
final class CrossBoundary(
    k: Int,
    boundary: Array[Boolean],
    part: Array[Int],
    labOv: H2HIndex,
    star: UpwardGraph,
) {
  val parentStar: Array[Int] = star.parent
  val depthStar: Array[Int] = star.depth
  /** T* itself, for its `lca`. */
  val lcaStar: UpwardGraph = star
  private val n = star.n
  private val lab = new H2HIndex(star)

  /** Roots of the non-boundary subtrees hanging off the overlay part,
    * grouped by partition (one parallel update task per partition).
    */
  private val subtreeRootsByPart: Array[Array[Int]] = {
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
    * labels to be recomputed: the T* chains above its attach points, each
    * vertex once (a walk stops where an earlier one of the same partition
    * passed, since everything above was listed then).
    */
  private val triggers: Array[Array[Int]] = {
    val seen = Array.fill(n)(-1)
    Array.tabulate(k) { i =>
      val buf = new mutable.ArrayBuilder.ofInt
      subtreeRootsByPart(i).foreach { r =>
        var a = parentStar(r)
        while (a != -1 && seen(a) != i) { seen(a) = i; buf += a; a = parentStar(a) }
      }
      buf.result()
    }
  }

  /** dis* row of v (the overlay row for a boundary vertex, Lemma 2). */
  def disStarOf(v: Int): Array[Int] = lab.dis(v)

  /** Point the boundary rows at the current overlay labels. */
  private def linkBoundary(): Unit = {
    var v = 0
    while (v < n) { if (boundary(v)) lab.dis(v) = labOv.dis(v); v += 1 }
  }

  /** Build (or rebuild) all cross labels of partition i. */
  def buildPartition(i: Int): Unit = {
    val pathDis = new Array[Array[Int]](star.height)
    subtreeRootsByPart(i).foreach(lab.walk(_, pathDis, _ => true)(lab.computeDis(_, pathDis)))
  }

  /** Full construction (Step 6 of PMHL), partition-parallel. */
  def buildAll(threads: Int): Unit = {
    star.buildLca(); linkBoundary()
    Parallel.run((0 until k).map(i => () => buildPartition(i)), threads)
  }

  /** U-Stage 5: recompute cross labels of the affected partitions.
    *
    * @param partitionScAffected partitions whose partition-TD shortcut
    *                            arrays changed in U-Stage 2
    * @param ovChanged           marks the overlay vertices whose labels
    *                            changed in U-Stage 3
    */
  def update(partitionScAffected: Array[Boolean],
             ovChanged: Array[Boolean],
             threads: Int): Array[Boolean] = {
    linkBoundary()
    val affected = Array.tabulate(k)(i => partitionScAffected(i) || triggers(i).exists(v => ovChanged(v)))
    val tasks = (0 until k).filter(affected).map(i => () => buildPartition(i))
    Parallel.run(tasks, threads)
    affected
  }

  /** 2-hop H2H query on T* (Q-Stage 5). */
  def query(s: Int, t: Int): Int = lab.query(s, t)

  /** Label entries of the non-boundary rows (for the |L| metric; the
    * boundary rows are counted with the overlay index).
    */
  def labelEntries: Long = {
    var s = 0L; var v = 0
    while (v < n) {
      if (!boundary(v) && lab.dis(v) != null) s += lab.dis(v).length
      v += 1
    }
    s
  }
}
