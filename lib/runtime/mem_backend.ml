(* The memory backend a run selects: the hardware memory model under
   which the simulator runs a program, so the same compiled module can
   be compared across models.

   - [Explicit] — the split-memory explicit-copy model: the CGCM
     run-time tracks allocation units, map/unmap/release move data over
     the bus, and the device owns a separate memory space. This is the
     paper's world.

   - [Paged]    — a single shared address space with touch-driven
     page-granular migration ({!Paged}): map/unmap/release are no-ops
     (communication is managed by the hardware, not the compiler) and
     every cost comes from page faults charged at the interpreter's
     load/store hooks.

   The interpreter resolves the backend together with its execution
   mode into one communication strategy per run (see interp.ml). Fault
   injection is shared: both backends drive the same simulated device,
   so a fault plan's launch/transfer failures fire identically; only
   the transfer class differs (explicit DMAs vs page migrations). *)

type kind = Explicit | Paged

let to_string = function Explicit -> "explicit" | Paged -> "paged"

let of_string = function
  | "explicit" -> Ok Explicit
  | "paged" -> Ok Paged
  | s -> Error (Printf.sprintf "unknown memory backend %S (want explicit|paged)" s)

let all = [ ("explicit", Explicit); ("paged", Paged) ]
