//! Pipeline sinks: where a pipeline's output lands.

use std::sync::Arc;

use morsel_core::ResultSlot;
use morsel_core::TaskContext;
use morsel_storage::{AreaSet, Schema, StorageArea};
use parking_lot::Mutex;

use crate::charge;
use crate::pipeline::SelBatch;

/// Shared slot holding a completed pipeline's materialized output.
pub type AreaSlot = Arc<Mutex<Option<Arc<AreaSet>>>>;

/// Create an empty area slot.
pub fn area_slot() -> AreaSlot {
    Arc::new(Mutex::new(None))
}

/// A pipeline sink. `consume` is called concurrently (one worker at a
/// time per worker slot); `finish` exactly once after the last morsel.
/// Sinks receive a [`SelBatch`] and are one of the pipeline's deferred
/// materialization points: a sink that copies anyway (materialize, top-k)
/// gathers through the selection in the same pass.
pub trait Sink: Send + Sync {
    fn consume(&self, ctx: &mut TaskContext<'_>, input: SelBatch);
    fn finish(&self, ctx: &mut TaskContext<'_>);
}

/// Materializes pipeline output into per-worker NUMA-local storage areas
/// (paper Section 2 / Figure 3 phase 1). Optionally also gathers the final
/// batch into a query result slot when this is the query's last pipeline.
pub struct MaterializeSink {
    areas: Vec<Mutex<StorageArea>>,
    schema: Schema,
    out: AreaSlot,
    result: Option<ResultSlot>,
}

impl MaterializeSink {
    /// `worker_nodes[w]` is the socket worker `w` is pinned to; each
    /// worker's area is allocated on its own node.
    pub fn new(
        schema: Schema,
        worker_nodes: &[morsel_numa::SocketId],
        out: AreaSlot,
        result: Option<ResultSlot>,
    ) -> Self {
        let types = schema.data_types();
        MaterializeSink {
            areas: worker_nodes
                .iter()
                .map(|&n| Mutex::new(StorageArea::new(n, &types)))
                .collect(),
            schema,
            out,
            result,
        }
    }
}

impl Sink for MaterializeSink {
    fn consume(&self, ctx: &mut TaskContext<'_>, input: SelBatch) {
        if input.is_empty() {
            return;
        }
        let appended = match &input.sel {
            None => input.batch.total_bytes(),
            Some(sel) => input.batch.selected_bytes(sel),
        };
        // Materialized output is retained operator state: charge it to
        // the query's budget and stop at this morsel boundary if the
        // budget refuses (the query is already marked failed).
        if ctx.try_reserve(appended).is_err() {
            return;
        }
        let mut area = self.areas[ctx.worker].lock();
        charge::materialize(input.rows() as f64, input.batch.width(), appended as f64)
            .book(ctx, &[]);
        match &input.sel {
            None => area.data_mut().extend_from(&input.batch),
            Some(sel) => {
                // Gather through the selection straight into the area:
                // the single deferred copy of the filtered pipeline.
                area.data_mut().extend_selected(&input.batch, sel)
            }
        }
    }

    fn finish(&self, _ctx: &mut TaskContext<'_>) {
        let areas: Vec<StorageArea> = self
            .areas
            .iter()
            .map(|a| {
                let mut guard = a.lock();
                let node = guard.node();
                std::mem::replace(&mut *guard, StorageArea::new(node, &[]))
            })
            .collect();
        let set = AreaSet::new(self.schema.clone(), areas).prune_empty();
        if let Some(result) = &self.result {
            // The query-result boundary: dictionary columns decode here
            // (intermediates handed to the next pipeline stay encoded).
            *result.lock() = Some(set.gather().decoded());
        }
        *self.out.lock() = Some(Arc::new(set));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_core::{result_slot, DispatchConfig, ExecEnv};
    use morsel_numa::{SocketId, Topology};
    use morsel_storage::{Batch, Column, DataType};

    fn ctx_env() -> ExecEnv {
        ExecEnv::new(Topology::nehalem_ex())
    }

    #[test]
    fn materialize_collects_per_worker_numa_local() {
        let env = ctx_env();
        let _ = DispatchConfig::new(2);
        let schema = Schema::new(vec![("x", DataType::I64)]);
        let nodes = env.worker_sockets(9); // round-robin: worker w on socket w%4
        let out = area_slot();
        let result = result_slot();
        let sink = MaterializeSink::new(schema, &nodes, out.clone(), Some(result.clone()));

        let mut ctx0 = TaskContext::new(&env, 0);
        sink.consume(
            &mut ctx0,
            SelBatch::dense(Batch::from_columns(vec![Column::I64(vec![1, 2])])),
        );
        let mut ctx1 = TaskContext::new(&env, 1);
        sink.consume(
            &mut ctx1,
            SelBatch::dense(Batch::from_columns(vec![Column::I64(vec![3])])),
        );
        // Empty batches are ignored.
        sink.consume(
            &mut ctx0,
            SelBatch::dense(Batch::from_columns(vec![Column::I64(vec![])])),
        );
        sink.finish(&mut ctx0);

        let set = out.lock().take().unwrap();
        assert_eq!(set.total_rows(), 3);
        assert_eq!(set.areas().len(), 2);
        assert_eq!(set.area(0).node(), SocketId(0));
        assert_eq!(set.area(1).node(), SocketId(1));
        let batch = result.lock().take().unwrap();
        assert_eq!(batch.column(0).as_i64(), &[1, 2, 3]);
        // Writes were charged NUMA-locally.
        let snap = env.counters().snapshot();
        assert!(snap.write_local > 0);
        assert_eq!(snap.write_remote, 0);
    }
}
