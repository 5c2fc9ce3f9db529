package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.StringType
import repro.graph.Dag

/** End-to-end BClean pipeline (Figure 2): BN construction → compensatory
  * score computation → per-cell MAP inference.
  *
  * The four experimental variants of Section 7 map to configurations:
  *  - `basic`     — full-joint inference, no pruning (BClean)
  *  - `noUc`      — partitioned inference without user constraints (BClean-UC)
  *  - `pi`        — partitioned inference (BClean_PI)
  *  - `pip`       — partitioned inference + tuple & domain pruning (BClean_PIP)
  */
object BClean {

  final case class Config(
      structure: StructureLearner.Config = StructureLearner.Config(),
      score: CompensatoryScore.Params = CompensatoryScore.Params(),
      inference: Inference.Config = Inference.Config(),
      cptAlpha: Double = 0.05, // small Laplace mass — α=1 drowns sparse FDs
  )

  object Config {
    val basic: Config = Config(inference = Inference.Config(partitioned = false))
    val noUc: Config = Config(inference = Inference.Config(useUc = false))
    val pi: Config = Config()
    val pip: Config = Config(inference = Inference.Config(tuplePruning = true, domainPruning = true))

    def variant(name: String): Config = name match {
      case "BClean"     => basic
      case "BClean-UC"  => noUc
      case "BClean_PI"  => pi
      case "BClean_PIP" => pip
      case other        => throw new IllegalArgumentException(s"unknown variant $other")
    }
  }

  /** Build the full inference model (network, scores, domains) from a dirty
    * relation. Exposed separately so tests and the user-interaction API can
    * inspect or edit the network before cleaning. Every attribute must be a
    * string column of `dirty`; otherwise this throws an
    * `IllegalArgumentException` naming the column, before any Spark job.
    */
  def buildModel(
      dirty: DataFrame,
      attrs: Seq[String],
      ucs: UcSet,
      cfg: Config = Config.pi,
      presetDag: Option[Dag] = None,
      userEdits: Seq[(Int, Int)] = Nil,
  ): Inference.Model = {
    requireStringColumns(dirty, attrs)
    val effUcs = if (cfg.inference.useUc) ucs else UcSet.empty
    // One counting pass feeds the CPTs, priors, user edits and domains.
    val co = CoOccurrence.compute(dirty, attrs)
    val dag0 = presetDag.getOrElse(StructureLearner.learn(dirty, attrs, cfg.structure))
    val bn0 = BayesNet.learn(co, attrs, dag0, cfg.cptAlpha)
    // Section 7.3.2: the user inspects the learned network and adjusts it
    // with lightweight domain knowledge (FD-shaped edges).
    val bn = if (userEdits.isEmpty) bn0 else BayesNet.applyUserEdits(co, bn0, userEdits)
    val dag = bn.dag
    // avgW: mean per-tuple weight (1 for conf ≥ τ, −β below). It comes out
    // of the corr aggregation, so the confidence column is computed once
    // without caching it.
    val (corr, avgW) = CompensatoryScore.corrAndMeanWeight(
      CompensatoryScore.withConfidence(dirty, attrs, effUcs, cfg.score.lambda),
      attrs, cfg.score.tau, cfg.score.beta)
    // Sorted, so nothing downstream depends on the order Spark returns rows in.
    val domains: Map[Int, IndexedSeq[String]] =
      attrs.indices.map(i => i -> co.unary(i).keys.toIndexedSeq.sorted).toMap
    val pruned =
      if (cfg.inference.domainPruning) DomainPruning.prune(domains, co, dag, cfg.inference.topK)
      else domains
    Inference.Model(attrs, bn, corr, co, domains, pruned, effUcs, cfg.inference, cfg.score, avgW)
  }

  private def requireStringColumns(dirty: DataFrame, attrs: Seq[String]): Unit =
    attrs.foreach { a =>
      val field = dirty.schema.find(_.name == a)
      require(field.nonEmpty,
        s"attribute column '$a' is missing (columns: ${dirty.columns.mkString(", ")})")
      require(field.get.dataType == StringType,
        s"attribute column '$a' is ${field.get.dataType.simpleString}, not string; cast it first")
    }

  /** Clean a dirty relation: returns a DataFrame with the same schema where
    * every cell holds the MAP value (Algorithm 1). Cells that are not
    * repaired come back exactly as given, SQL NULL included.
    */
  def clean(
      dirty: DataFrame,
      attrs: Seq[String],
      ucs: UcSet,
      cfg: Config = Config.pi,
      presetDag: Option[Dag] = None,
      userEdits: Seq[(Int, Int)] = Nil,
  ): DataFrame = {
    val model = buildModel(dirty, attrs, ucs, cfg, presetDag, userEdits)
    Inference.clean(dirty, model)
  }
}
