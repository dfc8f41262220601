package perfbench

import repro.data.TpcDsLite
import repro.workflows.W2

/** Seeded W2 inputs with the TpcDsLite column names, types and key
  * domains, generated without Spark. Every foreign key hits its dimension
  * row, so with pass-through filters each probe row yields one sink row.
  */
object W2Data {
  val NItems = 2000L // TpcDsLite's item count at SF = 1
  private val States = Vector("CA", "GA", "NM", "TN", "WA")
  private val Epoch = java.time.LocalDate.of(1992, 1, 1)

  /** Table 4's pass-through filters: every price and date qualifies. */
  def params(p: Int, srcRate: Double, srcCap: Int, midCap: Int): W2.Params =
    W2.Params(p = p, priceLo = 0.0, priceHi = 10.0, dateLoSk = 1L,
      dateWindowDays = 3000L, srcRate = srcRate, loop = true, srcCap = srcCap, midCap = midCap)

  private def round2(x: Double): Double = math.round(x * 100) / 100.0

  def generate(seed: Long, probeRows: Int): W2.Inputs = {
    val rnd = new scala.util.Random(seed)
    val item = (1L to NItems).map { sk =>
      val brand = rnd.nextInt(1000) + 1
      Map[String, Any](
        "i_item_sk" -> sk,
        "i_item_id" -> f"ITEM$sk%07d",
        "i_current_price" -> round2(rnd.nextDouble() * 2.0 + 0.5),
        "i_brand_id" -> brand,
        "i_brand" -> f"BRAND$brand%04d",
        "i_manager_id" -> (rnd.nextInt(100) + 1))
    }
    val warehouse = (1L to TpcDsLite.NWarehouses).map { sk =>
      Map[String, Any](
        "w_warehouse_sk" -> sk,
        "w_warehouse_name" -> s"Warehouse $sk",
        "w_state" -> States((sk % 5).toInt))
    }
    val dateDim = (1L to TpcDsLite.NDates).map { sk =>
      val d = Epoch.plusDays(sk - 1)
      Map[String, Any]("d_date_sk" -> sk, "d_date" -> d.toString,
        "d_moy" -> d.getMonthValue, "d_year" -> d.getYear)
    }
    val probe = Vector.tabulate(probeRows) { id =>
      Map[String, Any](
        "cs_sold_date_sk" -> (rnd.nextInt(TpcDsLite.NDates.toInt) + 1L),
        "cs_sold_time_sk" -> rnd.nextInt(TpcDsLite.NTimes.toInt).toLong,
        "cs_item_sk" -> (rnd.nextInt(NItems.toInt) + 1L),
        "cs_warehouse_sk" -> (rnd.nextInt(TpcDsLite.NWarehouses.toInt) + 1L),
        "cs_order_number" -> (id / 4 + 1L),
        "cs_quantity" -> (rnd.nextInt(100) + 1),
        "cs_sales_price" -> round2(rnd.nextDouble() * 300 + 1))
    }
    // About 10% of sales are returned, at most once per (order, item), so
    // J4's left join stays one-to-one.
    val returns = probe.filter(_ => rnd.nextInt(10) == 0).map { r =>
      (r("cs_order_number"), r("cs_item_sk")) -> Map[String, Any](
        "cr_order_number" -> r("cs_order_number"),
        "cr_item_sk" -> r("cs_item_sk"),
        "cr_return_quantity" -> (r("cs_quantity").asInstanceOf[Int] / 2 + 1),
        "cr_refunded_cash" -> round2(r("cs_sales_price").asInstanceOf[Double] * 0.5))
    }.toMap
    W2.Inputs(
      probe = probe,
      item = item.map(r => r("i_item_sk") -> r).toMap,
      warehouse = warehouse.map(r => r("w_warehouse_sk") -> r).toMap,
      dateDim = dateDim.map(r => r("d_date_sk") -> r).toMap,
      returns = returns)
  }

  /** W2 computed sequentially, row by row, over the first `n` rows the
    * benchmark's source emitted (it replays `probe` in order, stamping the
    * emission number as `bench_seq`). Returns (row count, checksum).
    */
  def reference(in: W2.Inputs, prm: W2.Params, n: Long): (Long, Long) = {
    var count = 0L
    var sum = 0L
    var seq = 0L
    while (seq < n) {
      val r = in.probe((seq % in.probe.size).toInt)
      for {
        it <- in.item.get(r("cs_item_sk"))
        price = it("i_current_price").asInstanceOf[Double]
        if price >= prm.priceLo && price <= prm.priceHi
        wh <- in.warehouse.get(r("cs_warehouse_sk"))
        dd <- in.dateDim.get(r("cs_sold_date_sk"))
        dsk = dd("d_date_sk").asInstanceOf[Long]
        if dsk >= prm.dateLoSk && dsk <= prm.dateLoSk + prm.dateWindowDays
      } {
        val cash = in.returns.get((r("cs_order_number"), r("cs_item_sk")))
          .map(_("cr_refunded_cash")).getOrElse(0.0)
        sum += Checksum.row(Map(
          "cs_order_number" -> r("cs_order_number"),
          "cs_item_sk" -> r("cs_item_sk"),
          "i_item_id" -> it("i_item_id"),
          "w_state" -> wh("w_state"),
          "d_date" -> dd("d_date"),
          "cs_sales_price" -> r("cs_sales_price"),
          "cr_refunded_cash" -> cash,
          Checksum.SeqCol -> seq))
        count += 1
      }
      seq += 1
    }
    (count, sum)
  }
}

/** Order-independent checksum of W2 output rows: the wrapping sum of a
  * 64-bit hash of each row's output columns and its emission number, so a
  * dropped, duplicated or altered row changes it.
  */
object Checksum {
  val SeqCol = "bench_seq"
  val Cols: Vector[String] = W2.outputCols.toVector :+ SeqCol

  def row(v: Map[String, Any]): Long = {
    var h = 0x243f6a8885a308d3L
    var i = 0
    while (i < Cols.size) {
      h = mix64(h * 31 + v(Cols(i)).##)
      i += 1
    }
    h
  }

  /** The splitmix64 finalizer. */
  def mix64(x: Long): Long = {
    var z = x
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
