(** The paged-memory backend: a single shared address space where the
    simulator charges touch-driven page-granular migration — the managed
    -memory model (CUDA unified memory / a coherent CPU-GPU link), in
    contrast to the explicit-copy model the CGCM run-time manages.

    Under this backend CGCM's map/unmap/release intrinsics are no-ops
    and all communication cost comes from page faults. Each page
    ({!Cgcm_gpusim.Cost_model.page_bytes}) is resident on one side at a
    time: first touch places it free (populate-on-first-touch), a
    same-side re-touch is free (no double charge), and a cross-side
    touch migrates the page for [page_fault_cycles + page_bytes /
    transfer_bytes_per_cycle].

    Device-side faults accumulate and extend the device's busy window
    when the launch ends ({!flush_launch}); host-side faults are
    synchronous — the caller syncs the device, then pays the returned
    cycles. Not a coherence protocol: the interpreter reads and writes
    one shared memspace, so this module is pure accounting. *)

type t

type stats = {
  mutable touches : int;  (** touch events, both sides *)
  mutable touched_pages : int;  (** distinct pages ever touched *)
  mutable faults_to_dev : int;  (** pages migrated host -> device *)
  mutable faults_to_host : int;  (** pages migrated device -> host *)
  mutable bytes_to_dev : int;
  mutable bytes_to_host : int;
}

val create : dev:Cgcm_gpusim.Device.t -> Cgcm_gpusim.Cost_model.t -> t
val stats : t -> stats

val touch : t -> kernel:bool -> addr:int -> len:int -> float
(** Note an access to [addr, addr+len). Returns the cycles the host must
    pay immediately — always [0.0] for kernel-side touches, whose cost
    lands in the pending pool until {!flush_launch}. A positive return
    means pages migrated device-to-host: the caller must sync the device
    (the pages may hold kernel output), advance its clock by the return
    value, and report the stall via {!note_host_migration}. *)

type memo
(** One load/store site's memo of its last touch (see {!touch_memo}). *)

val memo : unit -> memo
(** A fresh memo that misses on its first use. *)

val touch_memo : t -> memo -> kernel:bool -> addr:int -> len:int -> float
(** {!touch}, short-cut through the site's memo: when the access lies
    inside the single page the memo's last touch covered, from the same
    side, and no page's residence has changed since (a generation counter
    that every fault, first-touch populate and {!place_host} bumps), the
    page is still resident there, so only [stats.touches] moves and the
    result is [0.0]. Otherwise it runs {!touch} and, when the access
    lies within one page, remembers it. Results are identical to
    {!touch}. *)

val last_host_fault_pages : t -> int
(** Pages migrated by the most recent host-side faulting touch. *)

val note_host_migration : t -> start:float -> cycles:float -> pages:int -> unit
(** Record a host-side migration in the device's transfer accounting and
    trace, once the caller knows when it started. *)

val place_host : t -> addr:int -> len:int -> unit
(** Pre-place pages host-resident for free: module globals carry initial
    values written at load time, so their pages are host-populated
    before main runs. *)

val flush_launch : t -> unit
(** Flush device-side fault time accumulated during a kernel into the
    device timeline (busy window, transfer stats, trace). Call when the
    launch's driver work completes. *)

val fault_cost : t -> float
(** Full migration cost of one page, either direction. *)

val page_bytes : t -> int
val total_faults : t -> int
val migrated_bytes : t -> int
