package repro.core

import repro.SparkSpec
import repro.core.{UserConstraint => UC}

class InferenceSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private val ucs = UcSet(Map(
    "code" -> UC.All(Seq(UC.NotNull, UC.Pattern("c[0-9]{2}"))),
    "city" -> UC.All(Seq(UC.NotNull, UC.Length(3, 10))),
    "state" -> UC.All(Seq(UC.NotNull, UC.Length(2, 2))),
  ))

  private def model(cfg: Inference.Config): Inference.Model =
    BClean.buildModel(Fixtures.fdTableDirty(spark, 120), attrs, ucs,
      BClean.Config(inference = cfg))

  private lazy val piModel = model(Inference.Config())

  test("repairTuple fixes a typo'd city (partitioned inference)") {
    val dirtyRow = Fixtures.fdTableDirty(spark, 120).where("_tid = 0").collect()(0)
    val t = attrs.indices.map(i => Values.norm(dirtyRow.getString(i + 1))).toArray
    val truth = Fixtures.fdTable(spark, 120).where("_tid = 0").collect()(0)
    val repaired = Inference.repairTuple(piModel, t)
    assert(repaired(1) == truth.getString(2), s"got ${repaired.mkString(",")}")
  }

  test("repairTuple fills a missing city") {
    val dirtyRow = Fixtures.fdTableDirty(spark, 120).where("_tid = 1").collect()(0)
    val t = attrs.indices.map(i => Values.norm(dirtyRow.getString(i + 1))).toArray
    val truth = Fixtures.fdTable(spark, 120).where("_tid = 1").collect()(0)
    assert(t(1) == "")
    val repaired = Inference.repairTuple(piModel, t)
    assert(repaired(1) == truth.getString(2))
  }

  test("repairTuple repairs a wrong state") {
    val dirtyRow = Fixtures.fdTableDirty(spark, 120).where("_tid = 2").collect()(0)
    val t = attrs.indices.map(i => Values.norm(dirtyRow.getString(i + 1))).toArray
    val truth = Fixtures.fdTable(spark, 120).where("_tid = 2").collect()(0)
    val repaired = Inference.repairTuple(piModel, t)
    assert(repaired(2) == truth.getString(3))
  }

  test("clean tuples are left untouched") {
    val rows = Fixtures.fdTableDirty(spark, 120).where("_tid >= 10").collect()
    rows.take(20).foreach { r =>
      val t = attrs.indices.map(i => Values.norm(r.getString(i + 1))).toArray
      val repaired = Inference.repairTuple(piModel, t)
      assert(repaired.toSeq == t.toSeq, s"tid=${r.getLong(0)}")
    }
  }

  test("UC filters candidates: state candidates must have length 2") {
    val t = Array("c01", "akron", "zz")
    val repaired = Inference.repairTuple(piModel, t)
    assert(repaired(2).length == 2)
  }

  test("basic (full joint) and PI variants agree on this relation") {
    val basic = model(Inference.Config(partitioned = false))
    val rows = Fixtures.fdTableDirty(spark, 120).where("_tid < 6").collect()
    rows.foreach { r =>
      val t = attrs.indices.map(i => Values.norm(r.getString(i + 1))).toArray
      assert(Inference.repairTuple(basic, t).toSeq == Inference.repairTuple(piModel, t).toSeq)
    }
  }

  test("tuple pruning skips confident cells") {
    val pruning = model(Inference.Config(tuplePruning = true, tauClean = 0.9))
    val noPruning = piModel
    // A clean consistent tuple: with pruning all cells skip; result is equal
    // to input even if inference would also not change it (cheap path).
    val t = Array("c01", "akron", "oh")
    assert(Inference.repairTuple(pruning, t).toSeq == t.toSeq)
    assert(Inference.repairTuple(noPruning, t).toSeq == t.toSeq)
  }

  test("domain pruning restricts the candidate set but still repairs typos") {
    val pip = model(Inference.Config(tuplePruning = true, domainPruning = true, topK = 8))
    val dirtyRow = Fixtures.fdTableDirty(spark, 120).where("_tid = 0").collect()(0)
    val t = attrs.indices.map(i => Values.norm(dirtyRow.getString(i + 1))).toArray
    val truth = Fixtures.fdTable(spark, 120).where("_tid = 0").collect()(0)
    assert(Inference.repairTuple(pip, t)(1) == truth.getString(2))
  }

  test("clean() preserves schema and _tid") {
    val dirty = Fixtures.fdTableDirty(spark, 120)
    val cleaned = Inference.clean(dirty, piModel)
    assert(cleaned.schema == dirty.schema)
    assert(cleaned.select("_tid").collect().map(_.getLong(0)).sorted.toSeq == (0L until 120L))
  }

  test("clean() repairs the planted errors end-to-end") {
    val dirty = Fixtures.fdTableDirty(spark, 120)
    val truth = Fixtures.fdTable(spark, 120)
    val cleaned = Inference.clean(dirty, piModel)
    val prf = Metrics.evaluate(dirty, cleaned, truth, attrs)
    assert(prf.recall >= 0.75, prf.pretty)
    assert(prf.precision >= 0.75, prf.pretty)
  }

  // Tied candidates: "ab" and "ba" are one edit from both "aa" and "bb",
  // which score identically under key k1.
  private val tieUcs = UcSet(Map("val" -> UC.Pattern("aa|bb|cc")))
  private lazy val tieDf = Fixtures.ties(spark)

  private def tieModel(cfg: Inference.Config): Inference.Model =
    BClean.buildModel(tieDf, Fixtures.tieAttrs, tieUcs, BClean.Config(inference = cfg),
      presetDag = Some(repro.graph.Dag(2, Map((0, 1) -> 1.0))))

  private def cleanedRows(model: Inference.Model): Seq[Seq[String]] =
    Inference.clean(tieDf, model).collect().sortBy(_.getLong(0))
      .map(r => Seq(r.getString(1), r.getString(2))).toSeq

  test("a tie among non-incumbent candidates goes to the smaller string") {
    val t = Array("k1", "ab")
    val model = tieModel(Inference.Config())
    val scoreAa = Inference.score(model, 1, "aa", t, model.selfWeight(t))
    val scoreBb = Inference.score(model, 1, "bb", t, model.selfWeight(t))
    assert(scoreAa == scoreBb)
    assert(Inference.repairTuple(model, t).toSeq == Seq("k1", "aa"))
    assert(Inference.repairTuple(model, Array("k1", "ba")).toSeq == Seq("k1", "aa"))
  }

  test("a NULL whose best candidates tie stays NULL") {
    val model = tieModel(Inference.Config())
    assert(Inference.repairTuple(model, Array("k1", "")).toSeq == Seq("k1", ""))
  }

  test("reversing or shuffling every domain leaves clean() unchanged") {
    Seq(Inference.Config(), Inference.Config(partitioned = false),
      Inference.Config(tuplePruning = true, domainPruning = true, topK = 3)).foreach { cfg =>
      val model = tieModel(cfg)
      val expected = cleanedRows(model)
      assert(expected(26) == Seq("k1", "aa") && expected(27) == Seq("k1", "aa"))
      def reorder(f: IndexedSeq[String] => IndexedSeq[String]): Inference.Model =
        model.copy(domains = model.domains.map { case (a, d) => a -> f(d) },
          prunedDomains = model.prunedDomains.map { case (a, d) => a -> f(d) })
      assert(cleanedRows(reorder(_.reverse)) == expected, s"reversed, $cfg")
      (1 to 3).foreach { seed =>
        val rng = new scala.util.Random(seed)
        assert(cleanedRows(reorder(rng.shuffle(_))) == expected, s"shuffle $seed, $cfg")
      }
    }
  }
}
