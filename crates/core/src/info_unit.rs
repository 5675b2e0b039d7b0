//! Information units — "generate information about the links, like load
//! (which can be measured by buffer exploitation) and faults" (Figure 3).
//!
//! Translates the simulator's [`RouterView`] into the standard rule-program
//! inputs `free[dirs]`, `linkok[dirs]` and `out_queue[dirs]`. Programs only
//! need to declare the inputs they actually read; loading skips inputs a
//! program does not declare.

use ftr_rules::{InputMap, Program, Result, Value};
use ftr_sim::routing::RouterView;
use ftr_topo::VcId;

/// The link-information inputs a program declares, resolved once when a
/// node's controller is built.
#[derive(Clone, Copy, Debug)]
pub struct LinkInputs {
    free: Option<usize>,
    linkok: Option<usize>,
    out_queue: Option<usize>,
}

impl LinkInputs {
    /// Resolves `free`, `linkok` and `out_queue` against `prog`.
    pub fn resolve(prog: &Program) -> Self {
        LinkInputs {
            free: prog.input("free"),
            linkok: prog.input("linkok"),
            out_queue: prog.input("out_queue"),
        }
    }

    /// Loads the per-decision link information into `im`.
    ///
    /// * `free(d)` — output channel `d` is allocatable on virtual channel
    ///   `vc` (busy/credit state of the data path);
    /// * `linkok(d)` — the physical link behind `d` is alive;
    /// * `out_queue(d)` — data still assigned to output `d` (the adaptivity
    ///   criterion), clamped to the input's domain.
    pub fn load(&self, im: &mut InputMap, view: &RouterView<'_>, vc: VcId) -> Result<()> {
        for d in 0..view.link_alive.len() {
            let idx = [Value::Int(d as i64)];
            if let Some(i) = self.free {
                let f = view.link_alive[d] && view.out_free[d][vc.idx()];
                im.set_input(i, &idx, Value::Bool(f))?;
            }
            if let Some(i) = self.linkok {
                im.set_input(i, &idx, Value::Bool(view.link_alive[d]))?;
            }
            if let Some(i) = self.out_queue {
                let q = view.out_load[d].min(255) as i64;
                im.set_input(i, &idx, Value::Int(q))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_rules::{parse, InputProvider};
    use ftr_topo::NodeId;

    #[test]
    fn loads_declared_inputs_only() {
        let prog = parse(
            "CONSTANT dirs = 0 TO 3\nINPUT free[dirs] IN bool\nINPUT out_queue[dirs] IN 0 TO 255\n",
        )
        .unwrap();
        let out_free = vec![vec![true], vec![false], vec![true], vec![true]];
        let out_load = vec![3, 400, 0, 7];
        let link_alive = vec![true, true, false, true];
        let view = RouterView {
            node: NodeId(0),
            cycle: 0,
            out_free: &out_free,
            out_load: &out_load,
            link_alive: &link_alive,
        };
        let mut im = InputMap::for_program(&prog);
        LinkInputs::resolve(&prog).load(&mut im, &view, VcId(0)).unwrap();
        // free(2) is false because the link is dead even though the VC is free
        assert_eq!(im.read_input(&prog, 0, &[Value::Int(2)]).unwrap(), Value::Bool(false));
        assert_eq!(im.read_input(&prog, 0, &[Value::Int(0)]).unwrap(), Value::Bool(true));
        // out_queue clamps to 255
        assert_eq!(im.read_input(&prog, 1, &[Value::Int(1)]).unwrap(), Value::Int(255));
    }
}
