package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

/** Shared tiny relations for the core test suites. */
object Fixtures {

  /** The paper's Table 1 Customer relation (6 tuples, 9 attributes), with the
    * errors of Example 1 present ("KT", "25676x00", "315 w hicky st", NULL
    * InsuranceType, "400 nprthwood dr", "NY", "3960", "25600v5960", "High").
    */
  val customerAttrs: Seq[String] = Seq("Name", "Department", "Jobid", "City", "State",
    "ZipCode", "InsuranceCode", "InsuranceType")

  def customer(spark: SparkSession): DataFrame = {
    import spark.implicits._
    Seq(
      (0L, "johnny.r", "315 w hickory st", "25676000", "sylacauga", "ca", "35150", "2567600035150", ""),
      (1L, "johnny.r", "400 northwood dr", "25676x00", "sylacauga", "kt", "35150", "2567600035150", "normal"),
      (2L, "johnny.r", "315 w hicky st", "25676000", "sylacauga", "ca", "35150", "2567600035150", "normal"),
      (3L, "henry.p", "400 northwood dr", "25600180", "centre", "kt", "", "2560018035960", "low"),
      (4L, "henry.p", "400 nprthwood dr", "25600180", "centre", "ny", "3960", "25600v5960", "high"),
      (5L, "henry.p", "", "25600180", "centre", "kt", "35960", "", "low"),
    ).toDF(("_tid" +: customerAttrs): _*)
  }

  /** A clean 3-attribute FD relation: code → city, city → state; values
    * repeat so CPTs and co-occurrence statistics are informative.
    */
  val fdAttrs: Seq[String] = Seq("code", "city", "state")

  def fdTable(spark: SparkSession, n: Int = 120, seed: Long = 5): DataFrame = {
    import spark.implicits._
    val cities = Vector(("c01", "akron", "oh"), ("c02", "boise", "id"), ("c03", "fargo", "nd"),
      ("c04", "salem", "or"), ("c05", "tulsa", "ok"))
    val rng = new scala.util.Random(seed)
    (0 until n).map { i =>
      val (c, ci, st) = cities(rng.nextInt(cities.length))
      (i.toLong, c, ci, st)
    }.toDF(("_tid" +: fdAttrs): _*)
  }

  /** fdTable with a few planted errors (typos / nulls / wrong state). */
  def fdTableDirty(spark: SparkSession, n: Int = 120): DataFrame = {
    import spark.implicits._
    val base = fdTable(spark, n).collect().map(r => (r.getLong(0), r.getString(1), r.getString(2), r.getString(3)))
    val dirty = base.map {
      case (0L, c, ci, st)  => (0L, c, ci + "x", st)     // typo in city
      case (1L, c, ci, st)  => (1L, c, "", st)           // missing city
      case (2L, c, ci, st)  => (2L, c, ci, "zz")         // wrong state
      case (3L, c, ci, st)  => (3L, c.dropRight(1), ci, st) // typo in code
      case other            => other
    }
    dirty.toSeq.toDF(("_tid" +: fdAttrs): _*)
  }

  /** fdTableDirty with Spark NULLs (not empty strings) in a few cells of
    * every attribute, for checking that counts treat NULL as "".
    */
  def fdTableNulls(spark: SparkSession, n: Int = 120): DataFrame = {
    import spark.implicits._
    val rows = fdTableDirty(spark, n).collect().map { r =>
      val tid = r.getLong(0)
      def cell(i: Int): Option[String] =
        if (tid % 17 == i * 3 || r.getString(i + 1).isEmpty) None else Some(r.getString(i + 1))
      (tid, cell(0), cell(1), cell(2))
    }
    rows.toSeq.toDF(("_tid" +: fdAttrs): _*)
  }

  /** Key → value relation with exactly tied repair candidates: under key
    * "k1", "aa" and "bb" occur equally often, so a row holding "ab" (one
    * edit from both, and outside the `(aa|bb)` pattern UC) scores the two
    * candidates identically, and a NULL under "k1" has two tied fills.
    * Key "k2" adds a second, untied group.
    */
  val tieAttrs: Seq[String] = Seq("key", "val")

  def ties(spark: SparkSession): DataFrame = {
    import spark.implicits._
    val k1 = (0 until 20).map(i => ("k1", if (i % 2 == 0) "aa" else "bb"))
    val k2 = Seq.fill(6)(("k2", "cc"))
    val dirty = Seq(("k1", "ab"), ("k1", "ba"), ("k2", "ca"), ("k1", ""))
    (k1 ++ k2 ++ dirty).zipWithIndex.map { case ((k, v), i) => (i.toLong, k, v) }
      .toDF(("_tid" +: tieAttrs): _*)
  }

  /** `df`'s rows in one partition out of four, the other three empty: the
    * layout of a `_tid`-range cut of a four-partition `spark.range`.
    */
  def oneNonEmptyOfFour(spark: SparkSession, df: DataFrame): DataFrame = {
    val sc = spark.sparkContext
    val rows = sc.parallelize(df.collect().toSeq, 1).union(sc.parallelize(Seq.empty[Row], 3))
    spark.createDataFrame(rows, df.schema)
  }
}
