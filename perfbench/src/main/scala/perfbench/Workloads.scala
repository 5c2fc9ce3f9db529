package perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.core.BClean
import repro.data.{Benchmarks, CleaningDataset, Pools}

/** One benchmark workload. Everything a run depends on besides the seed is
  * pinned here: relation shape, BClean variant, call pattern and the Spark
  * settings (`Workloads.Spark`, shared by both). Nothing is read from the
  * environment.
  *
  * @param keep         the generated relation's attributes the workload
  *                     keeps (with the FDs among them); README.md says why
  *                     the relations are narrower than the paper's
  * @param relations    fresh-relation workloads: distinct relations made in
  *                     setup, one per timed call, so no two calls share
  *                     their input; the run makes at most this many calls
  * @param interactive  the Section 7.3.2 session: one relation, its network
  *                     learned once in setup, and call `i` re-cleans it with
  *                     the first `i + 1` of the user's FD edges; the run
  *                     makes at most one call per edge
  * @param qualityCalls calls always made, whose repair quality is reported,
  *                     so that quality does not depend on how many calls fit
  */
final case class Workload(
    name: String,
    variant: String,
    rows: Long,
    keep: Seq[String],
    relations: Int,
    interactive: Boolean,
    qualityCalls: Int,
    generate: (SparkSession, Long, Long) => CleaningDataset,
) {
  def config: BClean.Config = BClean.Config.variant(variant)

  /** Seed of the run's one generator call, derived from the workload seed. */
  def generatorSeed(workloadSeed: Long): Long = Pools.mix(workloadSeed, 0L) & 0x7fffffffL

  /** `parts` relations of `rows` rows each, restricted to the `keep`
    * attributes: one generator call of `rows × parts` rows, cut by `_tid`
    * range. Parts share the generator's entity pools (providers, breweries)
    * but no tuple, and one generator call costs a fraction of `parts`.
    */
  def relations(spark: SparkSession, workloadSeed: Long, parts: Int): IndexedSeq[CleaningDataset] = {
    val whole = generate(spark, rows * parts, generatorSeed(workloadSeed))
    val cols = ("_tid" +: keep).map(col)
    (0 until parts).map { i =>
      val inPart = col("_tid") >= i * rows && col("_tid") < (i + 1) * rows
      whole.copy(
        attrs = keep,
        clean = whole.clean.where(inPart).select(cols: _*),
        dirty = whole.dirty.where(inPart).select(cols: _*),
        mask = whole.mask.where(inPart && col("attr").isin(keep: _*)),
        fds = whole.fds.filter { case (xs, y) => (y +: xs).forall(keep.contains) },
      )
    }
  }
}

object Workloads {

  /** Spark settings of every workload: local mode with `threads` workers
    * (fewer if `nproc` is lower), Spark's default broadcast threshold, and a
    * codegen cache large enough for one call's queries. Spark keeps 100
    * compiled query classes by default; one call plans about 80 distinct
    * queries, so at the default every call recompiles (and the JVM re-JITs)
    * most of its generated code, which measured slower and noisier.
    */
  object Spark {
    val threads = 4
    val shufflePartitions = 8
    val broadcastThreshold: Long = 10L * 1024 * 1024
    val codegenCacheEntries = 10000
  }

  val all: Seq[Workload] = Seq(
    // The only workload with tuple pruning and domain pruning on: 13% noise,
    // two numeric attributes (Ounces, Abv) and the BreweryId FDs. A fresh
    // relation on every call.
    Workload("beers-pip", "BClean_PIP", rows = 2410,
      keep = Seq("Style", "Ounces", "Abv", "BreweryId", "BreweryName", "City"),
      relations = 3, interactive = false, qualityCalls = 3,
      generate = (s, n, seed) => Benchmarks.beers(s, n, seed)),
    // The interactive session: structure learning is skipped (network
    // preset), CPT learning and user edits dominate, and consecutive calls
    // share their input — the one workload where reuse across calls can pay.
    Workload("hospital-edits", "BClean_PI", rows = 1000,
      keep = Seq("ProviderNumber", "HospitalName", "City", "State", "ZipCode", "MeasureCode", "MeasureName"),
      relations = 1, interactive = true, qualityCalls = 3,
      generate = (s, n, seed) => Benchmarks.hospital(s, n, seed)),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
