package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Raw (un-weighted) value statistics of a relation, from one counting pass.
  * Everything BClean learns from the counts of `D` derives from them on the
  * driver: edge CPTs and priors (`Cpt.fromCounts`, `Cpt.prior`), the CPTs
  * recomputed by user edits, the candidate domains, tuple pruning (Section
  * 6.2) and domain pruning. The Garf-like rule miner and the Raha+Baran-like
  * corrector read them too.
  *
  *  - unary counts  count(v) per attribute,
  *  - pair counts   count(v_i, v_j) per ordered attribute pair.
  */
final case class CoOccurrence(
    nRows: Long,
    unary: Map[Int, Map[String, Long]],
    pairs: Map[(Int, Int), Map[(String, String), Long]],
) extends Serializable {

  def count(attr: Int, v: String): Long = unary.get(attr).flatMap(_.get(v)).getOrElse(0L)

  def count(ai: Int, vi: String, aj: Int, vj: String): Long =
    pairs.get((ai, aj)).flatMap(_.get((vi, vj))).getOrElse(0L)

  /** Tuple-pruning filter (Section 6.2):
    * Filter(T, A_i) = 1/(m−1) Σ_{A_j≠A_i} count(T[A_i],T[A_j]) / count(T[A_j]).
    * High values ⇒ the cell co-occurs consistently with its context and can
    * skip inference.
    */
  def filterScore(t: Array[String], i: Int): Double = {
    val m = t.length
    var s = 0.0
    var j = 0
    while (j < m) {
      if (j != i) {
        val cj = count(j, t(j))
        if (cj > 0) s += count(i, t(i), j, t(j)).toDouble / cj
      }
      j += 1
    }
    s / math.max(m - 1, 1)
  }
}

object CoOccurrence {

  /** All counts in one distributed pass: every row explodes into one entry
    * per ordered attribute pair (ai, aj, v_i, v_j) plus one unary entry per
    * attribute (ai, −1, v_i, ""), and a single `groupBy().count()` counts
    * both kinds. NULL is counted as the empty string. `nRows` is the sum of
    * the first attribute's unary counts. Every attribute and every ordered
    * pair has an entry, empty when the relation is.
    */
  def compute(df: DataFrame, attrs: Seq[String]): CoOccurrence = {
    val m = attrs.length
    if (m == 0) return CoOccurrence(df.count(), Map.empty, Map.empty)
    val entries = for {
      i <- attrs.indices
      j <- -1 +: attrs.indices if i != j
    } yield struct(lit(i) as "ai", lit(j) as "aj", col(attrs(i)) as "vi",
      (if (j < 0) lit("") else col(attrs(j))) as "vj")
    val rows = df.na.fill("", attrs)
      .select(explode(array(entries: _*)) as "p")
      .select(col("p.ai"), col("p.aj"), col("p.vi"), col("p.vj"))
      .groupBy("ai", "aj", "vi", "vj")
      .count()
      .collect()
    val unaryB = Array.fill(m)(Map.newBuilder[String, Long])
    val pairB = Array.fill(m, m)(Map.newBuilder[(String, String), Long])
    rows.foreach { r =>
      val ai = r.getInt(0); val aj = r.getInt(1)
      if (aj < 0) unaryB(ai) += r.getString(2) -> r.getLong(4)
      else pairB(ai)(aj) += (r.getString(2), r.getString(3)) -> r.getLong(4)
    }
    val unary = attrs.indices.map(i => i -> unaryB(i).result()).toMap
    val pairs = (for {
      i <- attrs.indices
      j <- attrs.indices if i != j
    } yield (i, j) -> pairB(i)(j).result()).toMap
    CoOccurrence(unary(0).valuesIterator.sum, unary, pairs)
  }
}
