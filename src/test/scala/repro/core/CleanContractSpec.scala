package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.core.{UserConstraint => UC}
import repro.graph.Dag

/** What `BClean.clean` promises about its output whatever it repairs: every
  * other cell comes back exactly as given (SQL NULL and "" kept apart), the
  * schema is the input's, the partition layout of the input does not matter,
  * and the input contract is checked before any Spark job.
  */
class CleanContractSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private val ucs = UcSet(Map(
    "code" -> UC.All(Seq(UC.NotNull, UC.Pattern("c[0-9]{2}"))),
    "city" -> UC.All(Seq(UC.NotNull, UC.Length(3, 10))),
    "state" -> UC.All(Seq(UC.NotNull, UC.Length(2, 2))),
  ))

  /** fdTableNulls with some cells set to "" as well, so both kinds of
    * missing value occur; most of them get filled.
    */
  private lazy val nullsAndEmpties: DataFrame = {
    val df = Fixtures.fdTableNulls(spark)
    val rows = df.collect().map { r =>
      Row.fromSeq(r.getLong(0) +: (1 to 3).map { i =>
        if (r.getLong(0) % 19 == 5 + i) "" else r.getString(i)
      })
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 2), df.schema)
  }

  /** The ties fixture plus a SQL NULL next to its "": under key k1 both
    * missing values have two tied fills, so both stay missing.
    */
  private lazy val tiesWithNull: DataFrame = {
    val df = Fixtures.ties(spark)
    val rows = df.collect().toSeq :+ Row(df.count(), "k1", null)
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), df.schema)
  }
  private val tieUcs = UcSet(Map("val" -> UC.Pattern("aa|bb|cc")))

  private def byTid(df: DataFrame): Map[Long, Seq[String]] =
    df.collect().map(r => r.getLong(0) -> (1 until r.length).map(r.getString)).toMap

  /** Asserts that every cell of `cleaned` either equals its `dirty` cell
    * exactly (NULL and "" apart) or is a repair to a non-missing value.
    * Returns the counts of kept NULLs, kept "" and repairs.
    */
  private def checkIdentityOffRepairs(dirty: DataFrame, cleaned: DataFrame): (Int, Int, Int) = {
    val (d, c) = (byTid(dirty), byTid(cleaned))
    assert(c.keySet == d.keySet)
    var keptNull = 0; var keptEmpty = 0; var repairs = 0
    for ((tid, row) <- d; i <- row.indices) {
      val out = c(tid)(i)
      if (Values.norm(out) == Values.norm(row(i))) {
        assert(out == row(i), s"tid=$tid column=$i: ${Option(row(i))} came back as ${Option(out)}")
        if (row(i) == null) keptNull += 1
        if (row(i) == "") keptEmpty += 1
      } else {
        assert(!Values.isNull(out), s"tid=$tid column=$i repaired to a missing value")
        repairs += 1
      }
    }
    (keptNull, keptEmpty, repairs)
  }

  test("clean is the identity on every cell it does not repair (NULL and \"\" kept apart)") {
    Seq(BClean.Config.pi, BClean.Config.pip).foreach { cfg =>
      val (_, _, repairs) =
        checkIdentityOffRepairs(nullsAndEmpties, BClean.clean(nullsAndEmpties, attrs, ucs, cfg))
      assert(repairs > 0, s"$cfg")
      val (keptNull, keptEmpty, tieRepairs) = checkIdentityOffRepairs(tiesWithNull,
        BClean.clean(tiesWithNull, Fixtures.tieAttrs, tieUcs, cfg))
      assert(keptNull == 1 && keptEmpty == 1 && tieRepairs > 0, s"$keptNull $keptEmpty $tieRepairs $cfg")
    }
  }

  test("the output schema and nullability equal the input's") {
    val schema = StructType(Seq(
      StructField("_tid", LongType, nullable = false),
      StructField("code", StringType, nullable = false),
      StructField("city", StringType, nullable = true),
      StructField("state", StringType, nullable = false),
      StructField("note", IntegerType, nullable = true),
    ))
    val rows = Fixtures.fdTableDirty(spark).collect().map { r =>
      Row(r.getLong(0), r.getString(1), r.getString(2), r.getString(3),
        if (r.getLong(0) % 3 == 0) null else r.getLong(0).toInt)
    }
    val dirty = spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 3), schema)
    val cleaned = BClean.clean(dirty, attrs, ucs)
    assert(cleaned.schema == dirty.schema)
    val notes = cleaned.collect().map(r => r.getLong(0) -> Option(r.get(4))).toMap
    assert(notes == rows.map(r => r.getLong(0) -> Option(r.get(4))).toMap)
  }

  test("a missing attribute column fails at the entry, naming the column") {
    val e = intercept[IllegalArgumentException] {
      BClean.clean(Fixtures.fdTableDirty(spark), attrs :+ "zip", ucs)
    }
    assert(e.getMessage.contains("'zip'") && e.getMessage.contains("missing"), e.getMessage)
  }

  test("a non-string attribute column fails at the entry, naming the column") {
    val dirty = Fixtures.fdTableDirty(spark).withColumn("num", col("_tid").cast(IntegerType))
    val e = intercept[IllegalArgumentException] {
      BClean.buildModel(dirty, attrs :+ "num", ucs)
    }
    assert(e.getMessage.contains("'num'") && e.getMessage.contains("int"), e.getMessage)
  }

  // The network is preset: structure learning itself depends on the layout
  // (see CHANGES.md), which is not what this checks.
  test("the input's partition layout does not change the cleaned cells") {
    val dirty = Fixtures.fdTableNulls(spark)
    val fds = Some(Dag(3, Map((0, 1) -> 1.0, (1, 2) -> 1.0)))
    Seq(BClean.Config.pi, BClean.Config.pip).foreach { cfg =>
      def cleaned(df: DataFrame) = byTid(BClean.clean(df, attrs, ucs, cfg, presetDag = fds))
      val expected = cleaned(dirty.coalesce(1))
      assert(cleaned(dirty.repartition(7)) == expected, s"$cfg")
      assert(cleaned(Fixtures.oneNonEmptyOfFour(spark, dirty)) == expected, s"$cfg")
    }
  }

  test("an empty relation cleans to an empty relation with the same schema") {
    val empty = Fixtures.fdTableDirty(spark).limit(0)
    val cleaned = BClean.clean(empty, attrs, ucs)
    assert(cleaned.schema == empty.schema)
    assert(cleaned.count() == 0)
  }

  test("a one-attribute relation cleans, leaving unrepaired cells as given") {
    val one = Fixtures.fdTableNulls(spark).select("_tid", "state")
    checkIdentityOffRepairs(one, BClean.clean(one, Seq("state"), ucs))
  }

  test("an all-NULL column stays NULL") {
    val df = Fixtures.fdTableDirty(spark).withColumn("state", lit(null).cast(StringType))
    val cleaned = BClean.clean(df, attrs, ucs)
    val (keptNull, _, _) = checkIdentityOffRepairs(df, cleaned)
    assert(keptNull >= 120)
  }
}
