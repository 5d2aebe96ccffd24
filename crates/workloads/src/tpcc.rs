//! TPC-C-lite: a small transactional engine behind the server.
//!
//! Implements the five TPC-C transaction types over real in-memory
//! tables (warehouse/district/customer/stock/orders) with the standard
//! 45/43/4/4/4 mix. Every read-write transaction appends a write-ahead-log
//! record that the server persists to virtio-blk before replying — the
//! disk+network throughput composition Fig. 9 measures with
//! sysbench-TPCC on PostgreSQL.

use std::cell::RefCell;
use std::rc::Rc;
use svt_sim::FnvHashMap;

use svt_mem::GuestMemory;
use svt_sim::{DetRng, SimDuration};

use crate::loadgen::{Request, RequestSource};
use crate::server::{ParsedRequest, ServeOutput, ServiceModel};

/// Transaction types, encoded in the request `op` field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TxType {
    /// ~45 %: order placement (read-write).
    #[default]
    NewOrder,
    /// ~43 %: payment (read-write).
    Payment,
    /// ~4 %: order status (read-only).
    OrderStatus,
    /// ~4 %: batch delivery (read-write).
    Delivery,
    /// ~4 %: stock level (read-only).
    StockLevel,
}

svt_sim::snap_enum! {
    "TPC-C transaction type" => TxType { NewOrder, Payment, OrderStatus, Delivery, StockLevel }
}

impl TxType {
    /// Decodes from a wire op code.
    pub fn from_op(op: u32) -> TxType {
        match op {
            0 => TxType::NewOrder,
            1 => TxType::Payment,
            2 => TxType::OrderStatus,
            3 => TxType::Delivery,
            _ => TxType::StockLevel,
        }
    }

    /// Encodes to a wire op code.
    pub fn op(self) -> u32 {
        match self {
            TxType::NewOrder => 0,
            TxType::Payment => 1,
            TxType::OrderStatus => 2,
            TxType::Delivery => 3,
            TxType::StockLevel => 4,
        }
    }

    /// Whether the transaction mutates state (and therefore logs).
    pub fn is_write(self) -> bool {
        matches!(self, TxType::NewOrder | TxType::Payment | TxType::Delivery)
    }
}

#[derive(Debug, Clone)]
struct Customer {
    balance: i64,
    payments: u32,
}

/// Every customer before its first payment.
const NEW_CUSTOMER: Customer = Customer {
    balance: -1000,
    payments: 0,
};

/// Stocked items, ids `0..ITEMS`.
const ITEMS: u64 = 100_000;

/// Units of every item before its first order.
const INITIAL_STOCK: i64 = 100;

#[derive(Debug, Clone)]
struct Order {
    customer: u64,
    lines: Vec<(u64, u32)>,
    delivered: bool,
}

/// The in-memory TPC-C database. Districts have dense ids, so their
/// table is a vector indexed by id. Customers and stock start out
/// uniform, so their tables hold only the rows a transaction changed,
/// over [`NEW_CUSTOMER`] and [`INITIAL_STOCK`]: a lane's run touches a
/// few hundred of a one-warehouse database's 103 000 such rows.
#[derive(Debug)]
pub struct TpccDb {
    warehouses: u64,
    districts_per_wh: u64,
    /// district id -> next order number.
    next_order: Vec<u64>,
    /// customer id -> state, for customers that paid.
    customers: FnvHashMap<u64, Customer>,
    /// item id -> units in stock, for items that were ordered.
    stock: FnvHashMap<u64, i64>,
    orders: FnvHashMap<(u64, u64), Order>,
    undelivered: Vec<(u64, u64)>,
    committed: u64,
}

impl TpccDb {
    /// Builds a database with the given warehouse count (10 districts and
    /// 3 000 customers per warehouse; 100 000 stocked items).
    pub fn new(warehouses: u64) -> Self {
        let districts_per_wh = 10;
        TpccDb {
            warehouses,
            districts_per_wh,
            next_order: vec![1; (warehouses * districts_per_wh) as usize],
            customers: FnvHashMap::default(),
            stock: FnvHashMap::default(),
            orders: FnvHashMap::default(),
            undelivered: Vec::new(),
            committed: 0,
        }
    }

    /// Units in stock of `item`.
    fn stock(&self, item: u64) -> i64 {
        self.stock.get(&item).copied().unwrap_or(INITIAL_STOCK)
    }

    /// Committed transactions.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Orders currently stored.
    pub fn order_count(&self) -> usize {
        self.orders.len()
    }

    /// Total order lines across stored orders (sanity metric for tests
    /// and reports).
    pub fn order_line_count(&self) -> usize {
        self.orders.values().map(|o| o.lines.len()).sum()
    }

    fn district_of(&self, key: u64) -> u64 {
        key % (self.warehouses * self.districts_per_wh)
    }

    /// Executes one transaction; returns `(rows_touched, wal_bytes)`.
    pub fn execute(&mut self, tx: TxType, key: u64, rng_lines: u32) -> (u32, u32) {
        let rows = match tx {
            TxType::NewOrder => {
                let d = self.district_of(key);
                let order_no = self.next_order[d as usize];
                self.next_order[d as usize] += 1;
                let lines: Vec<(u64, u32)> = (0..rng_lines.clamp(5, 15))
                    .map(|i| ((key * 17 + i as u64 * 31) % ITEMS, 1 + i % 5))
                    .collect();
                for (item, qty) in &lines {
                    let s = self.stock.entry(*item).or_insert(INITIAL_STOCK);
                    *s -= *qty as i64;
                    if *s < 10 {
                        *s += 91;
                    }
                }
                let n_lines = lines.len() as u32;
                self.orders.insert(
                    (d, order_no),
                    Order {
                        customer: key % (self.warehouses * 3000),
                        lines,
                        delivered: false,
                    },
                );
                self.undelivered.push((d, order_no));
                3 + 2 * n_lines
            }
            TxType::Payment => {
                let c = key % (self.warehouses * 3000);
                let cust = self.customers.entry(c).or_insert(NEW_CUSTOMER);
                cust.balance += 500;
                cust.payments += 1;
                4
            }
            TxType::OrderStatus => {
                let c = key % (self.warehouses * 3000);
                let found = self
                    .orders
                    .values()
                    .any(|o| o.customer == c && !o.delivered);
                2 + found as u32
            }
            TxType::Delivery => {
                let mut delivered = 0;
                for _ in 0..10 {
                    if let Some(id) = self.undelivered.pop() {
                        if let Some(o) = self.orders.get_mut(&id) {
                            o.delivered = true;
                            delivered += 1;
                        }
                    }
                }
                2 + 3 * delivered
            }
            TxType::StockLevel => {
                let low = (0..200).filter(|&i| self.stock(i) < 50).count() as u32;
                20 + low / 8
            }
        };
        self.committed += 1;
        let wal = if tx.is_write() { 96 + rows * 48 } else { 0 };
        (rows, wal)
    }
}

impl TxType {
    /// SQL statements sysbench-TPCC issues for this transaction type
    /// (each is a separate client round trip).
    pub fn statements(self) -> u32 {
        match self {
            TxType::NewOrder => 48,
            TxType::Payment => 28,
            TxType::OrderStatus => 14,
            TxType::Delivery => 34,
            TxType::StockLevel => 10,
        }
    }
}

/// The standard transaction mix as a *per-statement* request stream:
/// every SQL statement of a transaction is its own client round trip, as
/// with a real sysbench-TPCC driver. The `vsize` field carries the number
/// of statements remaining after this one (0 ⇒ commit).
#[derive(Debug, Clone)]
pub struct TpccSource {
    warehouses: u64,
    current_tx: Option<(TxType, u32)>,
}

// The transaction in progress is stream state; the warehouse count is
// configuration.
svt_sim::snap_fields! { TpccSource { current_tx } skip { warehouses } }

impl TpccSource {
    /// Requests against `warehouses` warehouses.
    pub fn new(warehouses: u64) -> Self {
        TpccSource {
            warehouses,
            current_tx: None,
        }
    }

    fn pick_type(&self, rng: &mut DetRng) -> TxType {
        let u = rng.unit();
        if u < 0.45 {
            TxType::NewOrder
        } else if u < 0.88 {
            TxType::Payment
        } else if u < 0.92 {
            TxType::OrderStatus
        } else if u < 0.96 {
            TxType::Delivery
        } else {
            TxType::StockLevel
        }
    }
}

impl RequestSource for TpccSource {
    fn next(&mut self, rng: &mut DetRng) -> Request {
        let (tx, remaining) = match self.current_tx.take() {
            Some((tx, n)) => (tx, n),
            None => {
                let tx = self.pick_type(rng);
                (tx, tx.statements() - 1)
            }
        };
        if remaining > 0 {
            self.current_tx = Some((tx, remaining - 1));
        }
        Request {
            op: tx.op(),
            key: rng.below(self.warehouses * 3000),
            vsize: remaining,
        }
    }
}

/// Parse/plan/execute cost per SQL statement.
const STMT_COST: SimDuration = SimDuration::from_us(45);
/// Cost per row touched at commit.
const PER_ROW: SimDuration = SimDuration::from_us(3);
/// Every n-th statement misses the buffer cache and reads a page.
const MISS_EVERY: u64 = 3;

/// The database service behind the server: per-statement execution with
/// buffer-cache-miss reads, and real transaction execution plus WAL
/// persistence at commit.
#[derive(Debug)]
pub struct TpccService {
    db: Rc<RefCell<TpccDb>>,
    stmt_counter: u64,
}

impl TpccService {
    /// A service over a fresh database; returns the service and a shared
    /// handle to the database for post-run inspection.
    pub fn new(warehouses: u64) -> (Self, Rc<RefCell<TpccDb>>) {
        let db = Rc::new(RefCell::new(TpccDb::new(warehouses)));
        (
            TpccService {
                db: Rc::clone(&db),
                stmt_counter: 0,
            },
            db,
        )
    }
}

impl ServiceModel for TpccService {
    fn serve(&mut self, req: &ParsedRequest, _mem: &mut GuestMemory) -> ServeOutput {
        let tx = TxType::from_op(req.op);
        self.stmt_counter += 1;
        let miss = self.stmt_counter.is_multiple_of(MISS_EVERY);
        if req.vsize > 0 {
            // Intermediate statement: point read/update.
            ServeOutput {
                compute: STMT_COST,
                reply_len: 64,
                disk_reads: miss as u32,
                wal_bytes: 0,
            }
        } else {
            // Final statement: execute and commit the whole transaction.
            let (rows, wal) = self.db.borrow_mut().execute(tx, req.key, 10);
            ServeOutput {
                compute: STMT_COST + PER_ROW * rows as u64,
                reply_len: 64,
                disk_reads: miss as u32,
                wal_bytes: wal.max(96),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_order_creates_order_and_moves_stock() {
        let mut db = TpccDb::new(1);
        let total = |db: &TpccDb| (0..ITEMS).map(|i| db.stock(i)).sum::<i64>();
        let before = total(&db);
        let (rows, wal) = db.execute(TxType::NewOrder, 42, 7);
        assert!(rows >= 3 + 2 * 5);
        assert!(wal > 96);
        assert_eq!(db.order_count(), 1);
        assert!(db.order_line_count() >= 5);
        let after = total(&db);
        assert!(after != before);
        assert_eq!(db.committed(), 1);
    }

    #[test]
    fn payment_updates_balance() {
        let mut db = TpccDb::new(1);
        db.execute(TxType::Payment, 7, 0);
        db.execute(TxType::Payment, 7, 0);
        let c = &db.customers[&7];
        assert_eq!(c.balance, 0);
        assert_eq!(c.payments, 2);
    }

    #[test]
    fn delivery_marks_orders_delivered() {
        let mut db = TpccDb::new(1);
        for k in 0..5 {
            db.execute(TxType::NewOrder, k, 5);
        }
        db.execute(TxType::Delivery, 0, 0);
        assert!(db.orders.values().all(|o| o.delivered));
    }

    #[test]
    fn stock_level_counts_low_stock_among_item_ids_below_200() {
        let mut db = TpccDb::new(1);
        let level = |db: &mut TpccDb| db.execute(TxType::StockLevel, 0, 0).0;
        let fill = |db: &mut TpccDb, items: std::ops::Range<u64>, units| {
            db.stock.extend(items.map(|i| (i, units)));
        };
        assert_eq!(level(&mut db), 20);
        // Eight low items among ids 0..200 add one row; 50 is not low.
        fill(&mut db, 0..8, 49);
        fill(&mut db, 8..9, 50);
        assert_eq!(level(&mut db), 21);
        // Low stock past the scanned item ids never counts.
        fill(&mut db, 0..1, 100);
        fill(&mut db, 200..1_000, 0);
        assert_eq!(level(&mut db), 20);
        fill(&mut db, 0..200, 0);
        assert_eq!(level(&mut db), 20 + 200 / 8);
    }

    #[test]
    fn read_only_transactions_do_not_log() {
        let mut db = TpccDb::new(1);
        let (_, wal1) = db.execute(TxType::OrderStatus, 3, 0);
        let (_, wal2) = db.execute(TxType::StockLevel, 3, 0);
        assert_eq!((wal1, wal2), (0, 0));
        assert!(!TxType::OrderStatus.is_write());
        assert!(TxType::NewOrder.is_write());
    }

    #[test]
    fn mix_approximates_standard_fractions() {
        let mut src = TpccSource::new(4);
        let mut rng = DetRng::seed(77);
        let mut counts = [0u32; 5];
        let mut total_tx = 0u32;
        // Consume whole transactions: the first statement of each reports
        // `statements - 1` remaining.
        while total_tx < 20_000 {
            let first = src.next(&mut rng);
            let tx = TxType::from_op(first.op);
            assert_eq!(first.vsize, tx.statements() - 1);
            for _ in 0..first.vsize {
                src.next(&mut rng);
            }
            counts[tx.op() as usize] += 1;
            total_tx += 1;
        }
        let f = |i: usize| counts[i] as f64 / 20_000.0;
        assert!((f(0) - 0.45).abs() < 0.02, "new-order {}", f(0));
        assert!((f(1) - 0.43).abs() < 0.02, "payment {}", f(1));
        for i in 2..5 {
            assert!((f(i) - 0.04).abs() < 0.01, "tx {i}: {}", f(i));
        }
    }

    #[test]
    fn service_commits_only_on_final_statement() {
        let (mut svc, db) = TpccService::new(1);
        let mut mem = GuestMemory::new(4096);
        let mid = svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 1,
                op: TxType::NewOrder.op(),
                vsize: 5, // 5 statements still to come
            },
            &mut mem,
        );
        assert_eq!(mid.wal_bytes, 0);
        assert_eq!(db.borrow().committed(), 0);
        let fin = svc.serve(
            &ParsedRequest {
                send_ps: 0,
                key: 1,
                op: TxType::NewOrder.op(),
                vsize: 0,
            },
            &mut mem,
        );
        assert!(fin.wal_bytes > 0);
        assert!(fin.compute > mid.compute);
        assert_eq!(db.borrow().committed(), 1);
    }

    #[test]
    fn source_emits_whole_transactions() {
        let mut src = TpccSource::new(1);
        let mut rng = DetRng::seed(3);
        let first = src.next(&mut rng);
        let tx = TxType::from_op(first.op);
        assert_eq!(first.vsize, tx.statements() - 1);
        let mut last = first;
        for _ in 0..tx.statements() - 1 {
            last = src.next(&mut rng);
            assert_eq!(TxType::from_op(last.op), tx);
        }
        assert_eq!(last.vsize, 0);
        // Next request starts a fresh transaction.
        let next = src.next(&mut rng);
        assert_eq!(next.vsize, TxType::from_op(next.op).statements() - 1);
    }

    #[test]
    fn tx_type_codec_round_trips() {
        for tx in [
            TxType::NewOrder,
            TxType::Payment,
            TxType::OrderStatus,
            TxType::Delivery,
            TxType::StockLevel,
        ] {
            assert_eq!(TxType::from_op(tx.op()), tx);
        }
    }
}
