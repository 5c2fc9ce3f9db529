package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.{UserConstraint => UC}
import repro.graph.Dag
import repro.text.Similarity

class CompensatoryScoreSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private lazy val dirty = Fixtures.fdTableDirty(spark, 120)
  private val ucs = UcSet(Map(
    "code" -> UC.All(Seq(UC.NotNull, UC.Pattern("c[0-9]{2}"))),
    "city" -> UC.All(Seq(UC.NotNull, UC.Length(3, 10))),
    "state" -> UC.All(Seq(UC.NotNull, UC.Length(2, 2))),
  ))

  test("confidence is 1 for a fully satisfying tuple") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val conf = wc.where(wc("_tid") === 10L).select("conf").collect()(0).getDouble(0)
    assert(conf == 1.0)
  }

  test("confidence drops with violations per Eq. 3") {
    // Tuple 1 has city = "" (violates NotNull): conf = max(0, (2 − λ·1)/3).
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val conf = wc.where(wc("_tid") === 1L).select("conf").collect()(0).getDouble(0)
    assert(math.abs(conf - 1.0 / 3.0) < 1e-9)
  }

  test("lambda scales the penalty") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 4.0)
    // (2 − 4)/3 < 0 → clamped to 0.
    val conf = wc.where(wc("_tid") === 1L).select("conf").collect()(0).getDouble(0)
    assert(conf == 0.0)
  }

  test("confidence is 1 everywhere when no UCs are given (BClean-UC)") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, UcSet.empty, lambda = 1.0)
    assert(wc.select("conf").collect().forall(_.getDouble(0) == 1.0))
  }

  test("corr table matches a DuckDB aggregation") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val corr = CompensatoryScore.corrTable(wc, attrs, tau = 0.5, beta = 2.0)
    // Reproduce one attribute pair (code, city) = (ai=0, aj=1) in DuckDB.
    val sparkPair = corr.where(corr("ai") === 0 && corr("aj") === 1)
      .selectExpr("c", "e", "cast(w as double) as w")
    Oracle.assertEquivalent(
      sparkPair,
      """SELECT code AS c, city AS e,
         sum(CASE WHEN CAST(conf AS DOUBLE) >= 0.5 THEN 1.0
                  ELSE -2.0 * (0.5 - CAST(conf AS DOUBLE)) / 0.5 END) AS w
         FROM t WHERE code <> '' AND city <> '' GROUP BY code, city""",
      "t" -> wc.selectExpr("coalesce(code,'') as code", "coalesce(city,'') as city", "conf"))
  }

  test("collect drops zero-weight entries and keys by attribute pair") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val m = CompensatoryScore.collect(CompensatoryScore.corrTable(wc, attrs, 0.5, 2.0))
    assert(m.keys.forall { case (i, j) => i != j && i >= 0 && j >= 0 && i < 3 && j < 3 })
    assert(m.values.forall(_.values.forall(_ != 0.0)))
  }

  test("scoreCorr accumulates over context attributes (Eq. 2)") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val corr = CompensatoryScore.collect(CompensatoryScore.corrTable(wc, attrs, 0.5, 2.0))
    val n = dirty.count()
    val t = Array("c01", "akron", "oh")
    val s = CompensatoryScore.scoreCorr(corr, n, 1, "akron", t)
    val manual = (corr.get((1, 0)).flatMap(_.get(("akron", "c01"))).getOrElse(0.0) +
      corr.get((1, 2)).flatMap(_.get(("akron", "oh"))).getOrElse(0.0)) / n
    assert(math.abs(s - manual) < 1e-12)
    assert(s > 0.0, "frequent clean pair should be positively correlated")
  }

  test("the observed correct value outscores a rare typo (Example 2/3 shape)") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val corr = CompensatoryScore.collect(CompensatoryScore.corrTable(wc, attrs, 0.5, 2.0))
    val n = dirty.count()
    // Tuple 0 has a typo'd city; the clean city must outscore the typo.
    val t0 = dirty.where(dirty("_tid") === 0L).collect()(0)
    val t = attrs.indices.map(i => Values.norm(t0.getString(i + 1))).toArray
    val cleanCity = Fixtures.fdTable(spark, 120).where("_tid = 0").collect()(0).getString(2)
    val good = CompensatoryScore.scoreCorr(corr, n, 1, cleanCity, t)
    val bad = CompensatoryScore.scoreCorr(corr, n, 1, t(1), t)
    assert(good > bad, s"clean=$good typo=$bad")
  }

  /** A model of every fixture relation, with the tuples it is scored on. */
  private lazy val fixtureModels: Seq[(String, Inference.Model, Seq[Array[String]])] = {
    def built(name: String, df: DataFrame, as: Seq[String], u: UcSet, cfg: BClean.Config) = {
      val model = BClean.buildModel(df, as, u, cfg, presetDag = Some(Dag(as.length, Map.empty)))
      val tuples = df.collect().toSeq.map(r => as.map(a => Values.norm(r.getAs[String](a))).toArray)
      (name, model, tuples)
    }
    Seq(
      built("customer", Fixtures.customer(spark), Fixtures.customerAttrs, UcSet.empty, BClean.Config.pi),
      built("fdTableDirty", dirty, attrs, ucs, BClean.Config.pi),
      built("fdTableNulls", Fixtures.fdTableNulls(spark), attrs, ucs, BClean.Config.basic),
      built("ties", Fixtures.ties(spark), Fixtures.tieAttrs, UcSet.empty, BClean.Config.pi),
    )
  }

  /** Eq. 2 summed straight over `model.corr`, one attribute pair at a time. */
  private def bruteScoreCorr(model: Inference.Model, j: Int, c: String, t: Array[String]): Double = {
    var s = 0.0
    for (k <- t.indices if k != j && !Values.isNull(t(k)))
      s += model.corr.get((j, k)).flatMap(_.get((c, t(k)))).getOrElse(0.0)
    s / math.max(model.co.nRows, 1L)
  }

  test("the indexed Score_corr equals the brute-force sum over corr exactly") {
    fixtureModels.foreach { case (name, model, tuples) =>
      var nonZero = 0
      for (t <- tuples; j <- t.indices; c <- model.domains(j)) {
        val ctx = CompensatoryScore.context(model.corrIndex, j, t)
        val indexed = CompensatoryScore.scoreCorr(ctx, model.co.nRows, c)
        val brute = bruteScoreCorr(model, j, c, t)
        assert(indexed == brute, s"$name j=$j c=$c t=${t.mkString(",")}")
        assert(CompensatoryScore.scoreCorr(model.corr, model.co.nRows, j, c, t) == brute)
        if (brute != 0.0) nonZero += 1
      }
      assert(nonZero > 0, name)
    }
  }

  test("Inference.score through the index equals the unindexed formula, leave-one-out included") {
    fixtureModels.foreach { case (name, model, tuples) =>
      val n = model.co.nRows
      for (t <- tuples; j <- t.indices; c <- model.domains(j) :+ t(j)) {
        val selfW = model.selfWeight(t)
        var cs = bruteScoreCorr(model, j, c, t)
        if (c == t(j) && !Values.isNull(c))
          cs -= selfW * t.indices.count(k => k != j && !Values.isNull(t(k))) / math.max(n, 1L)
        val bnLog =
          if (model.cfg.partitioned) model.bn.blanketLog(j, c, t) else model.bn.fullJointLog(j, c, t)
        val obsLog =
          if (Values.isNull(t(j))) 0.0
          else model.cfg.obsWeight * math.log(math.max(Similarity.string(t(j), c), model.cfg.simFloor))
        val expected = bnLog + CompensatoryScore.logCs(cs, n) + obsLog
        assert(Inference.score(model, j, c, t, selfW) == expected, s"$name j=$j c=$c t=${t.mkString(",")}")
      }
    }
  }

  test("logCs is monotone across the whole range, including negatives") {
    val n = 100L
    val xs = Seq(-2.0, -0.5, -0.01, 0.0, 0.01, 0.5, 2.0)
    val ys = xs.map(CompensatoryScore.logCs(_, n))
    assert(ys == ys.sorted)
    assert(ys.distinct.size == ys.size)
  }

  test("logCs is 0 at 0 and odd-symmetric") {
    assert(CompensatoryScore.logCs(0.0, 100L) == 0.0)
    assert(CompensatoryScore.logCs(0.5, 100L) == -CompensatoryScore.logCs(-0.5, 100L))
  }

  test("logCs approximates log of the net support count when large") {
    // scoreCorr=0.5 over n=1000 → net support 500 → ≈ log(501).
    val v = CompensatoryScore.logCs(0.5, 1000L)
    assert(math.abs(v - math.log(501.0)) < 1e-9)
  }
}
