package repro.core

import repro.{Oracle, SparkSpec}

class CoOccurrenceSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private lazy val df = Fixtures.fdTable(spark, 100)
  private lazy val co = CoOccurrence.compute(df, attrs)

  test("nRows is the relation size") {
    assert(co.nRows == 100L)
  }

  test("unary counts sum to n per attribute") {
    attrs.indices.foreach(i => assert(co.unary(i).values.sum == 100L))
  }

  test("unary counts match DuckDB") {
    import org.apache.spark.sql.functions._
    val counts = df.groupBy(col("state")).agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(counts,
      "SELECT state, count(*) AS cnt FROM t GROUP BY state", "t" -> df)
    val duck = counts.collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(co.unary(2) == duck)
  }

  test("pair counts match DuckDB") {
    import org.apache.spark.sql.functions._
    val counts = df.groupBy(col("code"), col("state")).agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(counts,
      "SELECT code, state, count(*) AS cnt FROM t GROUP BY code, state", "t" -> df)
    val duck = counts.collect().map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    assert(co.pairs((0, 2)) == duck)
  }

  test("pair counts are symmetric under key swap") {
    assert(co.count(0, "c01", 1, "akron") == co.count(1, "akron", 0, "c01"))
  }

  test("count of unknown value is 0") {
    assert(co.count(0, "zzz") == 0L)
    assert(co.count(0, "zzz", 1, "akron") == 0L)
  }

  test("filterScore is 1 for a perfectly consistent FD tuple") {
    // code c01 always co-occurs with akron/oh: count(c01,akron)/count(akron)=1.
    val t = Array("c01", "akron", "oh")
    val s = co.filterScore(t, 0)
    assert(s > 0.9, s"filter=$s")
  }

  test("filterScore is low for a foreign value") {
    val t = Array("c01", "akron", "oh")
    val tBad = t.clone(); tBad(0) = "c02" // c02 never pairs with akron
    assert(co.filterScore(tBad, 0) < 0.1)
  }

  test("filterScore on dirty relation separates clean from corrupted cells") {
    val dirty = Fixtures.fdTableDirty(spark, 120)
    val codirty = CoOccurrence.compute(dirty, attrs)
    val rows = dirty.collect().map(r => (r.getLong(0), Array(r.getString(1), Values.norm(r.getString(2)), r.getString(3))))
    val typoRow = rows.find(_._1 == 0L).get._2 // city typo'd
    val cleanRow = rows.find(_._1 == 50L).get._2
    assert(codirty.filterScore(typoRow, 1) < codirty.filterScore(cleanRow, 1))
  }

  test("NULL cells are counted as the empty string") {
    val nulls = Fixtures.fdTableNulls(spark, 120)
    val con = CoOccurrence.compute(nulls, attrs)
    val nullCities = nulls.where("city IS NULL").count()
    assert(nullCities > 0)
    assert(con.count(1, "") == nullCities)
    assert(con.pairs((0, 1)).collect { case ((_, ""), n) => n }.sum == nullCities)
    attrs.indices.foreach(i => assert(con.unary(i).values.sum == 120L))
  }

  test("a one-attribute relation has unary counts and no pairs") {
    val one = df.select("city")
    val co1 = CoOccurrence.compute(one, Seq("city"))
    assert(co1.nRows == 100L)
    assert(co1.unary(0) == co.unary(1))
    assert(co1.pairs.isEmpty)
  }

  test("an empty relation has zero rows and empty counts for every attribute") {
    val empty = df.where("false")
    val co0 = CoOccurrence.compute(empty, attrs)
    assert(co0.nRows == 0L)
    assert(co0.unary.keySet == attrs.indices.toSet)
    assert(co0.unary.values.forall(_.isEmpty))
    assert(co0.pairs.size == attrs.length * (attrs.length - 1))
    assert(co0.pairs.values.forall(_.isEmpty))
  }
}
