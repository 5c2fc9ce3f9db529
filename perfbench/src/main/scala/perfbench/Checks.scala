package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.Oracle
import repro.core.{Metrics, Values}

/** What a cleaned relation is checked against: the dirty relation it came
  * from, collected once per relation.
  */
final class Reference(dirty: DataFrame, val attrs: Seq[String]) {
  val schema: StructType = dirty.schema
  private val attrIdx = attrs.map(schema.fieldIndex).toArray
  private val tidIdx = schema.fieldIndex("_tid")

  /** _tid → attribute values (NULL normalized to ""). */
  val rows: Map[Long, Array[String]] =
    dirty.collect().iterator.map(r => r.getLong(tidIdx) -> Values.ofRow(r, attrIdx)).toMap

  /** Per attribute: the non-NULL values observed in the dirty relation. */
  val domains: Array[Set[String]] =
    Array.tabulate(attrs.length)(j => rows.valuesIterator.map(_(j)).filterNot(Values.isNull).toSet)

  /** Collect a relation with the reference's schema into _tid → values. */
  def valuesOf(df: DataFrame): Map[Long, Array[String]] =
    df.collect().iterator.map(r => r.getLong(tidIdx) -> Values.ofRow(r, attrIdx)).toMap
}

object Checks {

  /** Output check of one call: same schema, row count and _tid set as the
    * dirty relation, and every changed cell holds a value observed in that
    * attribute's dirty column. Returns the first violation, if any.
    */
  def output(ref: Reference, cleaned: DataFrame): Option[String] = {
    if (cleaned.schema != ref.schema) return Some(s"schema ${cleaned.schema.simpleString} != ${ref.schema.simpleString}")
    val rows = cleaned.collect()
    if (rows.length != ref.rows.size) return Some(s"row count ${rows.length} != ${ref.rows.size}")
    val out = ref.valuesOf(cleaned)
    if (out.size != rows.length || out.keySet != ref.rows.keySet) return Some("_tid set differs")
    for ((tid, vals) <- out; j <- ref.attrs.indices) {
      val before = ref.rows(tid)(j)
      if (vals(j) != before && !ref.domains(j).contains(vals(j)))
        return Some(s"tid $tid ${ref.attrs(j)}: '$before' -> '${vals(j)}' is outside the observed domain")
    }
    None
  }

  /** Cells whose cleaned value differs from the dirty one. */
  def repairs(ref: Reference, cleaned: Map[Long, Array[String]]): Long =
    cleaned.iterator.map { case (tid, vals) =>
      val before = ref.rows(tid)
      vals.indices.count(j => vals(j) != before(j)).toLong
    }.sum

  /** Recompute repairs, correct repairs and errors in DuckDB (through
    * `repro.Oracle`) and require them to equal `Metrics.evaluate`'s counts.
    * Columns are renamed a0..a(m-1) so attribute names never meet SQL
    * keywords.
    */
  def oracle(spark: SparkSession, dirty: DataFrame, cleaned: DataFrame, truth: DataFrame,
             attrs: Seq[String], prf: Metrics.Prf): Option[String] = {
    val cols = "_tid" +: attrs.indices.map(j => s"a$j")
    def wide(df: DataFrame) = df.select(("_tid" +: attrs).map(df.col): _*).toDF(cols: _*)
    def melt(t: String) = attrs.indices
      .map(j => s"SELECT _tid, '$j' AS attr, coalesce(a$j, '') AS v FROM $t")
      .mkString(" UNION ALL ")
    val sql =
      s"""WITH dm AS (${melt("d")}), cm AS (${melt("c")}), tm AS (${melt("t")})
         |SELECT sum(CASE WHEN cm.v <> dm.v THEN 1 ELSE 0 END) AS repairs,
         |       sum(CASE WHEN cm.v <> dm.v AND cm.v = tm.v THEN 1 ELSE 0 END) AS correct,
         |       sum(CASE WHEN dm.v <> tm.v THEN 1 ELSE 0 END) AS errors
         |FROM dm JOIN cm USING (_tid, attr) JOIN tm USING (_tid, attr)""".stripMargin
    import spark.implicits._
    val counts = Seq((prf.repairs, prf.correctRepairs, prf.errors)).toDF("repairs", "correct", "errors")
    try {
      Oracle.assertEquivalent(counts, sql, "d" -> wide(dirty), "c" -> wide(cleaned), "t" -> wide(truth))
      None
    } catch { case e: IllegalArgumentException => Some(s"DuckDB oracle: ${e.getMessage}") }
  }

  /** Cell-for-cell equality of two cleaned relations (traced vs untraced). */
  def sameCells(a: DataFrame, b: DataFrame): Boolean = {
    def sorted(df: DataFrame): Seq[Row] = df.collect().toSeq.sortBy(_.getAs[Long]("_tid"))
    a.schema == b.schema && sorted(a) == sorted(b)
  }
}
