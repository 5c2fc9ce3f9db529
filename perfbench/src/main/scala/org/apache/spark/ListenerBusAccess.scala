package org.apache.spark

/** Spark delivers listener events asynchronously; the traced run must see
  * every event of a call before it reads the per-span counters. The drain is
  * `private[spark]`, hence this one-line bridge in Spark's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
