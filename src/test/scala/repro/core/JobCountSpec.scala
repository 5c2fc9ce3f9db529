package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.SparkSpec
import repro.graph.Dag

/** Regression guard on the number of Spark jobs a model build launches: the
  * network, its user edits and the domains all derive from one counting
  * pass, so they must not fall back to a job per edge or per attribute.
  * Also checks that inference spreads its rows over every core.
  */
class JobCountSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private lazy val dirty = Fixtures.fdTableDirty(spark, 120)
  private val preset = Dag(3, Map((0, 1) -> 1.0))
  // Add 1 → 2, add 0 → 2, then 2 → 0: drops 0 → 2, and adding 2 → 0 would
  // close 0 → 1 → 2 → 0, so it is skipped.
  private val edits = Seq((1, 2), (0, 2), (2, 0))

  /** Runs `body` and counts the Spark jobs submitted from this thread while
    * it ran (tagged through a thread-local property), and the tasks of
    * those jobs that read shuffled rows.
    */
  private def scoped[T](body: => T): (T, Int, Int) = {
    val sc = spark.sparkContext
    val key = "repro.test.jobScope"
    val scope = java.util.UUID.randomUUID().toString
    val jobs = new AtomicInteger
    val shuffleReaders = new AtomicInteger
    val stages = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(key) == scope)) {
          jobs.incrementAndGet()
          e.stageIds.foreach(stages.add)
        }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages.contains(e.stageId) &&
            Option(e.taskMetrics).exists(_.shuffleReadMetrics.recordsRead > 0))
          shuffleReaders.incrementAndGet()
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(key, scope)
    try {
      val out = body
      ListenerBusDrain(sc)
      (out, jobs.get, shuffleReaders.get)
    } finally {
      sc.setLocalProperty(key, null)
      sc.removeSparkListener(listener)
    }
  }

  private def jobsOf[T](body: => T): (T, Int) = {
    val (out, jobs, _) = scoped(body)
    (out, jobs)
  }

  test("buildModel with a preset DAG and 3 user edits launches at most 4 jobs") {
    dirty.count()
    val (model, jobs) = jobsOf(BClean.buildModel(dirty, attrs, UcSet.empty, BClean.Config.pi,
      presetDag = Some(preset), userEdits = edits))
    assert(model.bn.dag.parents(2) == Seq(1))
    assert(jobs <= 4, s"$jobs jobs")
  }

  test("BayesNet.learn and applyUserEdits on counts launch no job") {
    val co = CoOccurrence.compute(dirty, attrs)
    val (bn, jobs) = jobsOf(BayesNet.applyUserEdits(co, BayesNet.learn(co, attrs, preset, 0.05), edits))
    assert(bn.dag.parents(2) == Seq(1))
    assert(jobs == 0, s"$jobs jobs")
  }

  test("the job counter sees jobs") {
    val (_, jobs) = jobsOf(dirty.groupBy("city").count().collect())
    assert(jobs >= 1)
  }

  test("inference on one non-empty partition of four runs on defaultParallelism tasks") {
    val model = BClean.buildModel(dirty, attrs, UcSet.empty, presetDag = Some(preset))
    val oneOfFour = Fixtures.oneNonEmptyOfFour(spark, dirty)
    assert(oneOfFour.rdd.getNumPartitions == 4)
    val (out, _, readers) = scoped(Inference.clean(oneOfFour, model).collect())
    assert(out.length == 120)
    val cores = spark.sparkContext.defaultParallelism
    assert(readers == math.min(cores, 120), s"$readers of $cores tasks got rows")
  }
}
