(* Per-layer readings: counter deltas from the metrics registry, span
   totals from (merged) trace files, allocation from the GC. *)

module Metrics = Standby_telemetry.Metrics
module Telemetry = Standby_telemetry.Telemetry
module Trace = Standby_telemetry.Trace

type snapshot = { registry : Metrics.registry_snapshot; minor_words : float; majors : int }

(* [Gc.minor_words] reads the allocation pointer; [Gc.quick_stat]'s
   count only advances at collections. *)
let snapshot () =
  {
    registry = Metrics.registry_snapshot Metrics.default;
    minor_words = Gc.minor_words ();
    majors = (Gc.quick_stat ()).Gc.major_collections;
  }

(* GC work summed over timed phases, each a (start, end) pair — the
   compactions between phases are left out. *)
let gc_minor_words phases =
  List.fold_left (fun acc (a, b) -> acc +. (b.minor_words -. a.minor_words)) 0.0 phases

let gc_majors phases =
  float_of_int (List.fold_left (fun acc (a, b) -> acc + (b.majors - a.majors)) 0 phases)

let counter (s : Metrics.registry_snapshot) name =
  Option.value (Metrics.find_counter s name) ~default:0

let delta before after name = float_of_int (counter after name - counter before name)

(* Sum and count of a histogram between two registry snapshots. *)
let histogram_delta before after name =
  let read s =
    match Metrics.find_histogram s name with
    | Some h -> (h.Metrics.sum, h.Metrics.count)
    | None -> (0.0, 0)
  in
  let s0, c0 = read before and s1, c1 = read after in
  (s1 -. s0, c1 - c0)

(* Counters whose deltas are reported under their own names. *)
let counters =
  [
    "sim.bitsim_words"; "sim.events"; "search.leaves"; "search.pruned"; "search.gate_changes";
    "search.bound_evaluations"; "greedy.swaps"; "greedy.backoffs"; "greedy.heap_pops";
    "greedy.rounds"; "sta.worklist_pops"; "sta.incremental_updates"; "sta.full_updates";
    "result_store.hits"; "result_store.misses";
  ]

let counter_deltas before after = List.map (fun n -> (n, delta before after n)) counters

(* Summed span durations by name over the given trace files, and the
   number of span records. *)
let span_totals files =
  match Trace.read_files files with
  | Error msg -> failwith ("trace: " ^ msg)
  | Ok records ->
    let rows = Trace.span_summary records in
    let spans = List.length (List.filter (fun r -> r.Trace.kind = "span") records) in
    ((fun name ->
       match List.find_opt (fun r -> r.Trace.span_name = name) rows with
       | Some r -> r.Trace.total_s
       | None -> 0.0),
     spans)

(* Run [f] with the process tracer writing to [file]. *)
let traced file f =
  Telemetry.set_trace_file file;
  Fun.protect ~finally:Telemetry.close_trace f

let span = Telemetry.span

let ratio a b = if b > 0.0 then a /. b else 0.0

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let a = Array.of_list sorted in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolated quantile, q in [0, 1]. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
