(* The in-process workloads: paper-suite and greedy-large.  Both run
   their jobs through [Engine.execute] in the benchmark process, first
   as misses into a fresh result store, then as hits. *)

module Process = Standby_device.Process
module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Netlist = Standby_netlist.Netlist
module Bench_io = Standby_netlist.Bench_io
module Benchmarks = Standby_circuits.Benchmarks
module Random_logic = Standby_circuits.Random_logic
module Optimizer = Standby_opt.Optimizer
module Assignment = Standby_power.Assignment
module Evaluate = Standby_power.Evaluate
module Manifest = Standby_service.Manifest
module Job = Standby_service.Job
module Engine = Standby_service.Engine
module Result_store = Standby_service.Result_store
module Timer = Standby_util.Timer

type job = {
  label : string;
  resolved : Job.resolved;
  lib : Library.t;
  span : string;  (** Benchmark span around the computing call. *)
}

type average = { avg_label : string; avg_lib : Library.t; avg_net : Netlist.t; oracle : bool }

type env = {
  libraries : Job.Library_cache.t;
  jobs : job array;
  averages : average array;
  average_seed : int;
  loaded_gates : int;  (** Gates of the netlists parsed from text. *)
}

let process = Process.default

let modes =
  [ ("4opt", Version.default_mode); ("vt-state", Version.vt_and_state_mode);
    ("state-only", Version.state_only_mode) ]

let span_of_method = function
  | Optimizer.Heuristic_1 -> "bench.heu1"
  | Optimizer.Exact -> "bench.exact"
  | Optimizer.Greedy _ -> "bench.greedy"
  | _ -> "bench.other"

let make_job ~lib ~mode_token ~mode ~circuit ~net ~penalty method_ =
  let job =
    {
      Manifest.id = Printf.sprintf "%s/%s/%s/%.2f" (Optimizer.method_name method_) mode_token circuit penalty;
      source = Manifest.Builtin circuit;
      mode;
      method_;
      penalty;
      deadline_s = None;
      process_file = None;
    }
  in
  { label = job.Manifest.id; resolved = { Job.job; net; process }; lib; span = span_of_method method_ }

let shuffle ~seed a =
  let st = Random.State.make [| seed |] in
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let build_libraries libraries tokens =
  List.map
    (fun token ->
      let mode = List.assoc token modes in
      (token, mode, Layer.span "bench.library_build" (fun () -> Job.Library_cache.get libraries ~mode ~process)))
    tokens

(* ------------------------------------------------------------------ *)
(* paper-suite                                                         *)

let penalties = [ 0.05; 0.10; 0.25 ]

(* Exact runs: fixed seeded 8-input / 12-gate circuits, each solved in
   well under a second, at the loosest and tightest penalty. *)
let exact_circuits = [ (8, 12, 1); (8, 12, 2); (8, 12, 4) ]
let exact_penalties = [ 0.05; 0.25 ]

(* Circuits whose packed random average is re-derived by the scalar
   simulator. *)
let oracle_circuits = [ "c432"; "c880"; "c1908" ]

let exact_name (i, g, s) = Printf.sprintf "x%di%dg_s%d" i g s

let paper_setup ~small ~seed () =
  let libraries = Job.Library_cache.create () in
  let tokens = if small then [ "4opt"; "state-only" ] else List.map fst modes in
  let libs = build_libraries libraries tokens in
  let names = if small then [ "c432"; "c880" ] else Benchmarks.names in
  let exacts = if small then [ List.hd exact_circuits ] else exact_circuits in
  let circuits, generated =
    Layer.span "bench.generate" (fun () ->
        ( List.map (fun n -> (n, Benchmarks.circuit n)) names,
          List.map
            (fun ((i, g, s) as x) ->
              (exact_name x, Random_logic.generate ~name:(exact_name x) ~seed:s ~inputs:i ~gates:g ()))
            exacts ))
  in
  let _, _, lib4 = List.hd libs in
  let heu1 =
    List.concat_map
      (fun (token, mode, lib) ->
        List.concat_map
          (fun penalty ->
            List.map
              (fun (circuit, net) ->
                make_job ~lib ~mode_token:token ~mode ~circuit ~net ~penalty Optimizer.Heuristic_1)
              circuits)
          penalties)
      libs
  in
  let exact =
    List.concat_map
      (fun (circuit, net) ->
        List.concat_map
          (fun penalty ->
            List.map
              (fun m -> make_job ~lib:lib4 ~mode_token:"4opt" ~mode:Version.default_mode ~circuit ~net ~penalty m)
              [ Optimizer.Exact; Optimizer.Heuristic_1 ])
          exact_penalties)
      generated
  in
  {
    libraries;
    jobs = shuffle ~seed (Array.of_list (heu1 @ exact));
    averages =
      Array.of_list
        (List.map
           (fun (n, net) ->
             { avg_label = "average/" ^ n; avg_lib = lib4; avg_net = net; oracle = List.mem n oracle_circuits })
           circuits);
    average_seed = seed;
    loaded_gates = 0;
  }

(* Exact is optimal: never worse than heu1 at the same penalty, and
   never worse at a looser penalty. *)
let paper_properties ~small ledger leakage =
  let exacts = if small then [ List.hd exact_circuits ] else exact_circuits in
  let label m c p = Printf.sprintf "%s/4opt/%s/%.2f" m c p in
  let tol x = x *. 1e-9 in
  List.iter
    (fun x ->
      let c = exact_name x in
      List.iter
        (fun p ->
          match (leakage (label "exact" c p), leakage (label "heu1" c p)) with
          | Some e, Some h when e > h +. tol h ->
            Check.refute ledger (label "exact" c p)
              (Printf.sprintf "exact %.9g A above heu1 %.9g A" e h)
          | _ -> ())
        exact_penalties;
      let loose = List.fold_left Float.max 0.0 exact_penalties
      and tight = List.fold_left Float.min 1.0 exact_penalties in
      match (leakage (label "exact" c loose), leakage (label "exact" c tight)) with
      | Some l, Some t when l > t +. tol t ->
        Check.refute ledger (label "exact" c loose)
          (Printf.sprintf "exact %.9g A at penalty %.2f above %.9g A at %.2f" l loose t tight)
      | _ -> ())
    exacts

(* ------------------------------------------------------------------ *)
(* greedy-large                                                        *)

(* One fixed seeded netlist (the generator's seed 11, 25 000 requested
   gates, 64 inputs, window gates/20 as [standbyopt generate] uses).
   The benchmark seed permutes its INPUT and OUTPUT declarations in
   the emitted text, which renumbers the parsed netlist and reorders
   its sleep vector: a different input of the same size and shape, so
   the greedy work stays comparable across seeds. *)
let greedy_gates ~small = if small then 2000 else 25000
let greedy_penalty = 0.05

(* Far above the time to quiescence, so the answer never depends on
   the host's speed. *)
let greedy_budget_s = 600.0

(* Shuffle the OUTPUT (and, with [inputs], the INPUT) declaration lines
   of a .bench text. *)
let permute_declarations ?(inputs = true) ~seed text =
  let is_declaration line =
    String.starts_with ~prefix:"OUTPUT(" line || (inputs && String.starts_with ~prefix:"INPUT(" line)
  in
  let lines = String.split_on_char '\n' text in
  let decls = Array.of_list (List.filter is_declaration lines) in
  let rest = List.filter (fun l -> not (is_declaration l)) lines in
  String.concat "\n" (Array.to_list (shuffle ~seed decls) @ rest)

let greedy_setup ~small ~seed () =
  let libraries = Job.Library_cache.create () in
  let token, mode, lib = List.hd (build_libraries libraries [ "4opt" ]) in
  let gates = greedy_gates ~small in
  let text =
    Layer.span "bench.generate" (fun () ->
        Random_logic.generate ~seed:11 ~inputs:64 ~gates ~window:(max 60 (gates / 20)) ())
    |> fun net ->
    let text = Layer.span "bench.emit" (fun () -> Bench_io.to_string net) in
    Layer.span "bench.generate" (fun () -> permute_declarations ~seed text)
  in
  let circuit = Printf.sprintf "rand_g%d_s11" gates in
  let net =
    match Layer.span "bench.parse" (fun () -> Bench_io.of_string ~name:circuit text) with
    | Ok net -> net
    | Error msg -> failwith ("greedy-large: emitted netlist does not parse: " ^ msg)
  in
  {
    libraries;
    jobs =
      [| make_job ~lib ~mode_token:token ~mode ~circuit ~net ~penalty:greedy_penalty
           (Optimizer.Greedy { time_budget_s = greedy_budget_s }) |];
    averages = [||];
    average_seed = seed;
    loaded_gates = Netlist.gate_count net;
  }

(* ------------------------------------------------------------------ *)
(* One round                                                           *)

let answer_of (j : job) (r : Optimizer.result) =
  {
    Check.lib = j.lib;
    net = j.resolved.Job.net;
    penalty = j.resolved.Job.job.Manifest.penalty;
    budget = r.Optimizer.budget;
    leakage = r.Optimizer.breakdown.Evaluate.total;
    assignment = Assignment.to_string r.Optimizer.assignment;
  }

type state = {
  ledger : Check.ledger;
  cache : Standby_cells.Stack_solver.cache;
  leakages : (string, float) Hashtbl.t;  (** First answer per label. *)
}

let state () = { ledger = Check.ledger (); cache = Check.new_cache (); leakages = Hashtbl.create 128 }

let record_outcome st (j : job) ~expect (o : Engine.outcome) =
  match (o.Engine.status, o.Engine.result) with
  | Engine.Failed msg, _ -> Check.observe_failure st.ledger j.label ("failed: " ^ msg)
  | _, None -> Check.observe_failure st.ledger j.label "no result"
  | status, Some r ->
    let x = answer_of j r in
    if not (Hashtbl.mem st.leakages j.label) then Hashtbl.replace st.leakages j.label x.Check.leakage;
    let ok = status = expect in
    if not ok then
      prerr_endline
        (Printf.sprintf "perfbench: %s: %s, expected %s" j.label (Engine.status_name status)
           (Engine.status_name expect));
    let cache = st.cache in
    Check.observe st.ledger j.label ~fp:x.Check.assignment ~ok ~check:(fun () -> Check.answer ~cache x)

let round st ~run_dir ~setup_repeats ~cached_passes setup ~traced =
  let env, setup_s =
    Round.repeat_setup ~repeats:setup_repeats ~discard:ignore (fun () -> Layer.span "bench.setup" setup)
  in
  let store_dir = Filename.concat run_dir "store" in
  Proc.fresh_dir store_dir;
  let store = Result_store.create ~dir:store_dir () in
  let execute j = Engine.execute ~store ~libraries:env.libraries j.resolved in
  (* Every timed phase starts from a compacted heap, so garbage left by
     earlier rounds does not bill the GC work to this one. *)
  Gc.compact ();
  let s0 = Layer.snapshot () in
  let greedy_words = ref 0.0 in
  let (averages, computed), solve_s =
    Timer.time (fun () ->
        Layer.span "bench.solve" (fun () ->
            let averages =
              Array.map
                (fun a ->
                  Layer.span "bench.random_average" (fun () ->
                      Evaluate.random_vector_average ~seed:env.average_seed a.avg_lib a.avg_net))
                env.averages
            in
            let computed =
              Array.map
                (fun j ->
                  let w0 = Gc.minor_words () in
                  let o = Layer.span j.span (fun () -> execute j) in
                  if j.span = "bench.greedy" then
                    greedy_words := !greedy_words +. (Gc.minor_words () -. w0);
                  o)
                env.jobs
            in
            (averages, computed)))
  in
  let s_solved = Layer.snapshot () in
  Gc.compact ();
  let s_compacted = Layer.snapshot () in
  let greedy_hit_words = ref 0.0 in
  let hits, cached_s =
    Timer.time (fun () ->
        Layer.span "bench.cached" (fun () ->
            Array.init cached_passes (fun _ ->
                Array.map
                  (fun j ->
                    let w0 = Gc.minor_words () in
                    let o = Layer.span "bench.hit" (fun () -> execute j) in
                    if j.span = "bench.greedy" then
                      greedy_hit_words := !greedy_hit_words +. (Gc.minor_words () -. w0);
                    o)
                  env.jobs)))
  in
  let s1 = Layer.snapshot () in
  let rss_mb = Proc.vm_hwm_mb None in
  (* Service-layer probe, traced rounds only: the digest and the store
     lookup a hit starts with, timed on their own. *)
  if traced then
    Array.iter
      (fun j ->
        let key = Layer.span "bench.digest" (fun () -> Job.key j.resolved) in
        ignore (Layer.span "bench.store_find" (fun () -> Result_store.find store ~key)))
      env.jobs;
  (* Bookkeeping and checks stay outside the timed phases. *)
  Array.iteri
    (fun i a ->
      let packed = averages.(i) in
      let check () =
        if a.oracle then Check.random_average ~vectors:10_000 ~seed:env.average_seed a.avg_lib a.avg_net packed
        else Ok ()
      in
      Check.observe st.ledger a.avg_label ~fp:(Printf.sprintf "%h" packed.Evaluate.total) ~ok:true ~check)
    env.averages;
  Array.iteri (fun i j -> record_outcome st j ~expect:Engine.Computed computed.(i)) env.jobs;
  Array.iter (Array.iteri (fun i o -> record_outcome st env.jobs.(i) ~expect:Engine.Cached o)) hits;
  let leakage_ua =
    Array.fold_left
      (fun acc (o : Engine.outcome) ->
        match o.Engine.result with
        | Some r -> acc +. (r.Optimizer.breakdown.Evaluate.total *. 1e6)
        | None -> acc)
      0.0 computed
  in
  let swaps = Layer.delta s0.Layer.registry s1.Layer.registry "greedy.swaps" in
  {
    Round.setup_s;
    solve_s;
    cached_s;
    leakage_ua;
    rss_mb;
    layer =
      [
        ("netlist.loaded_gates", float_of_int env.loaded_gates);
        (* A miss allocates what a hit does (digest, store, evaluation)
           and the optimization on top: only the difference is counted. *)
        ( "greedy.minor_words_per_swap",
          Layer.ratio (!greedy_words -. (!greedy_hit_words /. float_of_int cached_passes)) swaps );
        ("gc.minor_words", Layer.gc_minor_words [ (s0, s_solved); (s_compacted, s1) ]);
        ("gc.major_collections", Layer.gc_majors [ (s0, s_solved); (s_compacted, s1) ]);
      ]
      @ Layer.counter_deltas s0.Layer.registry s1.Layer.registry;
    passes = cached_passes;
    trace_files = [];
    latencies = [];
  }
