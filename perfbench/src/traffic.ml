(* The serve-mixed request stream, derived from the seed alone. *)

module Wire = Cgcm_serve.Wire

let tenants = 4

(* The mode mix is the repository's load generator's: the [modes] table
   in lib/serve/loadgen.ml (not exported) draws opt three times in six
   and unopt, seq and the unified oracle once each. The oracle's share
   goes to opt+paged here, the served mode that exercises the paged
   backend — an assumption, since no traffic data in the repository
   says how often tenants ask for it. *)
let mode_mix = [| "opt"; "opt"; "opt"; "unopt"; "seq"; "opt+paged" |]

(* The served modes, each once. *)
let modes = List.sort_uniq compare (Array.to_list mode_mix)

let polybench = [ "atax"; "bicg"; "gesummv"; "gemver" ]
let loadgen = List.init 4 (Printf.sprintf "loadgen%d")

(* The hot set, in equal shares: [Loadgen] draws its variants uniformly,
   and the four PolyBench kernels join them at the same weight — again
   an assumption, unsupported by traffic data. Cold requests follow the
   same mix. *)
let classes = loadgen @ polybench

(* One request in [cold_every] carries a source the daemon has never
   seen and must compile. *)
let cold_every = 10

let source_of_class cls =
  match Cgcm_progs.Registry.find cls with
  | Some p -> p.Cgcm_progs.Registry.source
  | None -> (
    match Scanf.sscanf cls "loadgen%d%!" Fun.id with
    | v -> Cgcm_serve.Loadgen.source ~variant:v
    | exception _ -> invalid_arg ("unknown request class " ^ cls))

let sources = List.map (fun c -> (c, source_of_class c)) classes

type req = {
  wire : Wire.request;
  cls : string;  (* the program the source computes: its expected output *)
  cold : bool;
}

(* Pass [pass] of the stream: [size] requests with globally unique ids.
   Every pass holds the same requests and the seed only orders them.
   Slot k is in block k / 8, which holds every hot program once: a block
   has one mode, cycling through [mode_mix], and one block in
   [cold_every] is cold. So each pass has the same count of every
   (program, mode, cold) combination, and the heavy requests that make
   the tail do not vary in number between seeds. Tenants take turns. A
   cold request's source is a hot program behind a header comment naming
   its id: its cache key is new, its output known. *)
let pass ~seed ~pass ~size : req list =
  let rng = Cgcm_support.Rng.stream ~seed (pass + 1) in
  let cls = Array.of_list classes in
  let n = Array.length cls in
  let slot k =
    let block = k / n in
    ( cls.(k mod n),
      mode_mix.(block mod Array.length mode_mix),
      block mod cold_every = cold_every - 1,
      (k + block) mod tenants )
  in
  List.mapi
    (fun k (cls, mode, cold, tenant) ->
      let id = (pass * size) + k in
      let src = List.assoc cls sources in
      let source = if cold then Printf.sprintf "// request %d\n%s" id src else src in
      {
        wire =
          {
            Wire.rq_id = id;
            rq_tenant = Printf.sprintf "t%d" tenant;
            rq_source = source;
            rq_mode = mode;
            rq_deadline = None;
            rq_strict = false;
            rq_faults = None;
          };
        cls;
        cold;
      })
    (Ops.shuffle rng (List.init size slot))

(* Warm-up request ids, clear of every pass's. *)
let warm_base = 1_000_000

(* Daemon [index]'s warm-up: every hot program once under every served
   mode, so the hot set is cached before the timed pass; the pass's
   only misses are then its cold requests. *)
let warmup ~index : req list =
  List.concat_map (fun cls -> List.map (fun mode -> (cls, mode)) modes) classes
  |> List.mapi (fun k (cls, mode) ->
         {
           wire =
             {
               Wire.rq_id = warm_base + (index * 64) + k;
               rq_tenant = Printf.sprintf "t%d" (k mod tenants);
               rq_source = List.assoc cls sources;
               rq_mode = mode;
               rq_deadline = None;
               rq_strict = false;
               rq_faults = None;
             };
           cls;
           cold = false;
         })
