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

  /** The corr table re-keyed for per-cell lookups:
    * `index(j)(k)(e)(c) = corr((j, k))((c, e))`. For a cell (i, j) every
    * context value t[A_k] is fixed across candidates, so `context` fetches
    * the m−1 maps once and each candidate costs one string lookup per
    * context attribute.
    */
  type CorrIndex = Array[Array[Map[String, Map[String, Double]]]]

  def index(corr: Map[(Int, Int), Map[(String, String), Double]], m: Int): CorrIndex =
    Array.tabulate(m, m) { (j, k) =>
      corr.getOrElse((j, k), Map.empty[(String, String), Double]).toSeq
        .groupBy(_._1._2)
        .map { case (e, entries) => e -> entries.iterator.map { case ((c, _), w) => c -> w }.toMap }
    }

  /** The context maps of cell (·, j) of tuple `t`: one per non-null A_k ≠ A_j
    * with corr entries for t[A_k], in ascending k.
    */
  def context(index: CorrIndex, j: Int, t: Array[String]): Array[Map[String, Double]] = {
    val out = Array.newBuilder[Map[String, Double]]
    var k = 0
    while (k < t.length) {
      if (k != j && !Values.isNull(t(k))) index(j)(k).get(t(k)).foreach(out += _)
      k += 1
    }
    out.result()
  }

  /** Score_corr(c, t, A_j) (Eq. 2) over the context maps of the cell,
    * normalized by the relation size. Terms are added in ascending k.
    */
  def scoreCorr(ctx: Array[Map[String, Double]], nRows: Long, c: String): Double = {
    var s = 0.0
    var k = 0
    while (k < ctx.length) { s += ctx(k).getOrElse(c, 0.0); k += 1 }
    s / math.max(nRows, 1L)
  }

  /** Score_corr(c, t, A_j) straight from the collected corr map. */
  def scoreCorr(
      corr: Map[(Int, Int), Map[(String, String), Double]],
      nRows: Long,
      j: Int,
      c: String,
      t: Array[String],
  ): Double = scoreCorr(context(index(corr, t.length), j, t), nRows, c)

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
