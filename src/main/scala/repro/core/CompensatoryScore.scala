package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._

/** Compensatory scoring model (Section 5, Algorithm 2).
  *
  * Approximates Score_comp = log Pr[t] − log Pr[t|c] by the correlation score
  *   Score_corr(c, t, A_j) = Σ_{A_k ≠ A_j} corr(c, t[A_k], A_j, A_k)
  * where corr accumulates, over all tuples containing the value pair, +1 for
  * tuples whose UC-based confidence (Eq. 3) is ≥ τ and −β otherwise, divided
  * by |D|.
  *
  * Both stages are expressed as DataFrame aggregations so they scale with the
  * relation: confidence is a per-row expression; the corr table is an
  * attribute-pair explode followed by a groupBy/sum.
  */
object CompensatoryScore {

  final case class Params(lambda: Double = 1.0, beta: Double = 2.0, tau: Double = 0.5)

  /** Tuple confidence (Eq. 3):
    * conf(T) = max(0, (Σ 1[UC=1] − λ · Σ 1[UC=0]) / |T|).
    * Adds a `conf` column to the relation.
    */
  def withConfidence(df: DataFrame, attrs: Seq[String], ucs: UcSet, lambda: Double): DataFrame = {
    val checks: Seq[Column] = attrs.map { a =>
      val uc = ucs(a)
      val checkUdf = udf((v: String) => uc.check(Values.norm(v)))
      checkUdf(col(a))
    }
    val sat = checks.reduce(_ + _).cast("double")
    val viol = lit(attrs.length) - sat
    val conf = greatest(lit(0.0), (sat - lit(lambda) * viol) / lit(attrs.length.toDouble))
    df.withColumn("conf", conf)
  }

  /** The corr table of Algorithm 2 as a DataFrame with columns
    * (ai, aj, c, e, w): for each ordered attribute pair (A_i, A_j) and value
    * pair (c, e), w = Σ_T (1[conf ≥ τ] − β·1[conf < τ]).  Normalization by
    * |D| happens at lookup time.
    */
  def corrTable(dfWithConf: DataFrame, attrs: Seq[String], tau: Double, beta: Double): DataFrame =
    weightedPairs(dfWithConf, attrs, tau, beta, withMarker = false)
      .groupBy("ai", "aj", "c", "e")
      .agg(sum("w") as "w")

  /** The collected corr table and the mean per-tuple cliff weight
    * (1 for conf ≥ τ, −β below) in one aggregation: each row adds one
    * marker entry (−1, −1, "", "") weighted by its cliff weight next to its
    * pair entries. The mean is 1.0 on an empty relation.
    */
  def corrAndMeanWeight(
      dfWithConf: DataFrame,
      attrs: Seq[String],
      tau: Double,
      beta: Double,
  ): (Map[(Int, Int), Map[(String, String), Double]], Double) = {
    val (markers, rows) = weightedPairs(dfWithConf, attrs, tau, beta, withMarker = true)
      .groupBy("ai", "aj", "c", "e")
      .agg(sum("w") as "w", count(lit(1)) as "n")
      .collect()
      .partition(_.getInt(0) < 0)
    val meanW = markers.headOption.fold(1.0)(r => r.getDouble(4) / r.getLong(5))
    (toCorrMap(rows), meanW)
  }

  /** Exploded (ai, aj, c, e, w) entries of the corr table, plus the marker
    * entry per row when asked. Pair entries with an empty side are dropped:
    * NULL is not an observation, and at a 30% missing rate such pairs would
    * dominate the table with noise. The weights stay outside the exploded
    * structs, so wide relations keep one weight expression per row (and a
    * generated method small enough to compile).
    */
  private def weightedPairs(
      dfWithConf: DataFrame,
      attrs: Seq[String],
      tau: Double,
      beta: Double,
      withMarker: Boolean,
  ): DataFrame = {
    val pairs = for {
      i <- attrs.indices
      j <- attrs.indices if i != j
    } yield struct(
      lit(i) as "ai",
      lit(j) as "aj",
      coalesce(col(attrs(i)), lit("")) as "c",
      coalesce(col(attrs(j)), lit("")) as "e",
    )
    val marker = struct(lit(-1) as "ai", lit(-1) as "aj", lit("") as "c", lit("") as "e")
    dfWithConf
      .select(explode(array((if (withMarker) pairs :+ marker else pairs): _*)) as "p",
        weightExpr(col("conf"), tau, beta) as "w",
        when(col("conf") >= tau, 1.0).otherwise(-beta) as "cliff")
      .select(col("p.ai"), col("p.aj"), col("p.c"), col("p.e"),
        when(col("p.ai") < 0, col("cliff")).otherwise(col("w")) as "w")
      .where((col("c") =!= "" && col("e") =!= "") || col("ai") < 0)
  }

  /** Collect the corr table into a broadcast-friendly nested map:
    * (ai, aj) → ((c, e) → w). Zero-weight entries are dropped.
    */
  def collect(corrDf: DataFrame): Map[(Int, Int), Map[(String, String), Double]] =
    toCorrMap(corrDf.collect())

  private def toCorrMap(rows: Array[Row]): Map[(Int, Int), Map[(String, String), Double]] =
    rows
      .groupBy(r => (r.getInt(0), r.getInt(1)))
      .map { case (k, rows) =>
        k -> rows.iterator
          .map(r => (r.getString(2), r.getString(3)) -> r.getDouble(4))
          .filter(_._2 != 0.0)
          .toMap
      }

  /** Score_corr(c, t, A_j) from the collected corr map (Eq. 2), normalized by
    * the relation size.
    */
  def scoreCorr(
      corr: Map[(Int, Int), Map[(String, String), Double]],
      nRows: Long,
      j: Int,
      c: String,
      t: Array[String],
  ): Double = {
    var s = 0.0
    var k = 0
    while (k < t.length) {
      if (k != j && !Values.isNull(t(k))) {
        corr.get((j, k)) match {
          case Some(mp) => s += mp.getOrElse((c, t(k)), 0.0)
          case None     =>
        }
      }
      k += 1
    }
    s / math.max(nRows, 1L)
  }

  /** Per-tuple corr weight. The paper's Algorithm 2 uses the cliff
    * 1[conf ≥ τ] / −β·1[conf < τ]; we grade the penalty by how far below τ
    * the tuple sits, −β·(τ−conf)/τ, so that at high noise rates (Flights,
    * ~30%) tuples one violation short of τ do not erase the legitimate
    * support of their clean value pairs. At low noise (Hospital) almost all
    * tuples pass τ and the two schemes coincide — which is also why the
    * λ/β/τ sweeps of Tables 8–10 stay flat.
    */
  def weight(conf: Double, tau: Double, beta: Double): Double =
    if (conf >= tau) 1.0 else -beta * (tau - conf) / math.max(tau, 1e-9)

  private[core] def weightExpr(conf: Column, tau: Double, beta: Double): Column =
    when(conf >= tau, 1.0).otherwise(lit(-beta) * (lit(tau) - conf) / math.max(tau, 1e-9))

  /** Centered Score_corr: each pair's weight is reduced by its expectation
    * under attribute independence, avgW · count(c)·count(e) / n — i.e., the
    * *lift* of the pair. Raw co-occurrence hands every candidate free mass
    * from near-constant context attributes (country, ounces, …); the lift
    * cancels it exactly while preserving genuine FD-style dependence.
    * avgW is the mean per-tuple confidence weight (1 or −β), so the
    * expectation lives on the same scale as the weighted counts.
    */
  def scoreCorrCentered(
      corr: Map[(Int, Int), Map[(String, String), Double]],
      co: CoOccurrence,
      avgW: Double,
      j: Int,
      c: String,
      t: Array[String],
  ): Double = {
    val n = math.max(co.nRows, 1L).toDouble
    val cntC = co.count(j, c).toDouble
    var s = 0.0
    var k = 0
    while (k < t.length) {
      if (k != j) {
        val observed = corr.get((j, k)).flatMap(_.get((c, t(k)))).getOrElse(0.0)
        val expected = avgW * cntC * co.count(k, t(k)).toDouble / n
        s += observed - expected
      }
      k += 1
    }
    s / n
  }

  /** The paper combines scores as log(BN) + log(CS). Score_corr may be ≤ 0
    * (β-penalties), where a raw log is undefined; since only the relative
    * order of candidates matters (Section 5), we use the monotone signed-log
    * transform sign(x)·log1p(|x·n|) over the *un-normalized* net support
    * count. It agrees with log on large positive support, is defined and
    * order-preserving for penalized (negative) scores, and has no cliff that
    * would let a weakly-supported candidate crush a penalized-but-correct
    * incumbent.
    */
  def logCs(scoreCorr: Double, nRows: Long): Double = {
    val net = scoreCorr * math.max(nRows, 1L)
    math.signum(net) * math.log1p(math.abs(net))
  }
}
