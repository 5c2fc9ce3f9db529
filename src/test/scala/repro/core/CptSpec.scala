package repro.core

import repro.{Oracle, SparkSpec}
import repro.graph.Dag

class CptSpec extends SparkSpec {

  private lazy val df = Fixtures.fdTable(spark, 100)
  private val attrs = Fixtures.fdAttrs

  test("prior sums to ~1 and matches frequencies") {
    val p = Cpt.prior(df, "city", alpha = 0.0)
    assert(math.abs(p.values.sum - 1.0) < 1e-9)
    // DuckDB cross-check of the underlying counts.
    import org.apache.spark.sql.functions._
    val counts = df.groupBy(col("city")).agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(counts,
      "SELECT city, count(*) AS cnt FROM t GROUP BY city", "t" -> df)
  }

  test("prior with Laplace smoothing shifts mass but keeps normalization") {
    val p = Cpt.prior(df, "city", alpha = 1.0)
    assert(math.abs(p.values.sum - 1.0) < 1e-9)
    val p0 = Cpt.prior(df, "city", alpha = 0.0)
    val maxV = p0.maxBy(_._2)._1
    assert(p(maxV) < p0(maxV)) // smoothing pulls the mode down
  }

  test("learned edge CPT is deterministic for a functional dependency") {
    // code → city is exact in the clean table: P(city|code) = 1 per code.
    val cpt = Cpt.learn(df, attrs, parent = 0, child = 1, alpha = 0.0)
    cpt.table.foreach { case (_, (counts, total)) =>
      assert(counts.size == 1)
      assert(counts.values.sum == total)
    }
    val (pv, (counts, _)) = cpt.table.head
    assert(cpt.prob(pv, counts.keys.head) == 1.0)
  }

  test("edge CPT conditional counts match DuckDB") {
    import org.apache.spark.sql.functions._
    val sparkCounts = df.groupBy(col("code"), col("city")).agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(sparkCounts,
      "SELECT code, city, count(*) AS cnt FROM t GROUP BY code, city", "t" -> df)
  }

  test("smoothing: unseen child value gets alpha mass") {
    val cpt = Cpt.learn(df, attrs, 0, 1, alpha = 1.0)
    val (pv, (_, total)) = cpt.table.head
    val expect = 1.0 / (total + cpt.domSize)
    assert(math.abs(cpt.prob(pv, "never-seen") - expect) < 1e-12)
  }

  test("unseen parent value is uniform") {
    val cpt = Cpt.learn(df, attrs, 0, 1, alpha = 1.0)
    assert(math.abs(cpt.prob("no-such-code", "akron") - 1.0 / cpt.domSize) < 1e-12)
  }

  test("logProb is log of prob") {
    val cpt = Cpt.learn(df, attrs, 0, 1, alpha = 1.0)
    val (pv, (counts, _)) = cpt.table.head
    val v = counts.keys.head
    assert(math.abs(cpt.logProb(pv, v) - math.log(cpt.prob(pv, v))) < 1e-12)
  }

  test("learnAll builds one CPT per edge, keyed by child") {
    val dag = Dag(3, Map((0, 2) -> 1.0, (1, 2) -> 1.0, (0, 1) -> 0.5))
    val all = Cpt.learnAll(df, attrs, dag)
    assert(all.keySet == Set(1, 2))
    assert(all(2).map(_.parent).sorted == Seq(0, 1))
    assert(all(1).map(_.parent) == Seq(0))
    assert(all.values.flatten.forall(c => c.table.nonEmpty))
  }

  // Count-derived statistics on a relation with NULLs, against DuckDB.
  private lazy val nulls = Fixtures.fdTableNulls(spark, 120)
  private lazy val nullCo = CoOccurrence.compute(nulls, attrs)

  test("count-derived CPT tables match DuckDB GROUP BY counts (NULL as \"\")") {
    import spark.implicits._
    val cpt = Cpt.fromCounts(nullCo, parent = 1, child = 2, alpha = 0.05)
    val entries = cpt.table.toSeq.flatMap { case (pv, (counts, _)) =>
      counts.toSeq.map { case (cv, n) => (pv, cv, n) }
    }
    Oracle.assertEquivalent(entries.toDF("city", "state", "cnt"),
      "SELECT coalesce(city, '') AS city, coalesce(state, '') AS state, count(*) AS cnt " +
        "FROM t GROUP BY 1, 2", "t" -> nulls)
    val totals = cpt.table.toSeq.map { case (pv, (_, total)) => (pv, total) }
    Oracle.assertEquivalent(totals.toDF("city", "total"),
      "SELECT coalesce(city, '') AS city, count(*) AS total FROM t GROUP BY 1", "t" -> nulls)
  }

  test("count-derived domSize matches DuckDB COUNT(DISTINCT)") {
    import spark.implicits._
    attrs.indices.foreach { child =>
      val parent = (child + 1) % attrs.length
      val cpt = Cpt.fromCounts(nullCo, parent, child, alpha = 0.05)
      Oracle.assertEquivalent(Seq(cpt.domSize.toLong).toDF("dom"),
        s"SELECT count(DISTINCT coalesce(${attrs(child)}, '')) AS dom FROM t", "t" -> nulls)
    }
  }

  test("count-derived priors match DuckDB-computed smoothed frequencies") {
    import spark.implicits._
    attrs.indices.foreach { i =>
      val a = attrs(i)
      val p = Cpt.prior(nullCo, i, alpha = 0.5)
      Oracle.assertEquivalent(p.toSeq.toDF("v", "p"),
        s"SELECT coalesce($a, '') AS v, (count(*) + 0.5) / " +
          s"((SELECT count(*) FROM t) + 0.5 * (SELECT count(DISTINCT coalesce($a, '')) FROM t)) AS p " +
          s"FROM t GROUP BY 1", "t" -> nulls)
    }
  }

  test("DataFrame entry points equal the count-derived statistics") {
    val co = CoOccurrence.compute(df, attrs)
    assert(Cpt.learn(df, attrs, 0, 2, alpha = 0.05) == Cpt.fromCounts(co, 0, 2, alpha = 0.05))
    assert(Cpt.prior(df, "state", alpha = 0.05) == Cpt.prior(co, 2, alpha = 0.05))
    val dag = Dag(3, Map((0, 1) -> 1.0, (1, 2) -> 1.0))
    assert(Cpt.learnAll(df, attrs, dag) == Cpt.learnAll(co, dag, alpha = 0.05))
  }
}
