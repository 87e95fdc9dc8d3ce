(** The memory backend a run selects: the hardware memory model under
    which the simulator runs a program.

    [Explicit] is the paper's split-memory world — the CGCM run-time
    ({!Runtime}) tracks allocation units and map/unmap/release move data
    over the bus. [Paged] is a single shared address space with
    touch-driven page-granular migration ({!Paged}) — the intrinsics are
    no-ops and all cost comes from page faults charged at the
    interpreter's access hooks.

    The interpreter resolves the backend together with its execution
    mode into one communication strategy per run. Fault injection is
    shared: both backends drive the same simulated device, so fault
    plans apply identically. *)

type kind = Explicit | Paged

val to_string : kind -> string
val of_string : string -> (kind, string) result

val all : (string * kind) list
(** Name/value pairs for CLI enum converters. *)
