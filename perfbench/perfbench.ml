(* perfbench: the standby optimizer stack's end-to-end benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1
               --standbyopt PATH --run-dir DIR [--small]
     perfbench --selftest

   Runs whole rounds of workload W (set-up, a pass of misses into a
   fresh result store, passes of hits) until S seconds have gone, checks
   every answer independently, and prints one JSON object as its last
   line: the end-to-end metrics (medians over rounds) with --trace 0,
   the per-layer metrics of traced rounds with --trace 1.  See
   README.md. *)

module Timer = Standby_util.Timer

let workloads = [ "paper-suite"; "greedy-large"; "serve-routed" ]

(* Passes of hits per round: enough that the cached phase lasts over a
   second on the reference host. *)
let cached_passes = function
  | "paper-suite" -> 8
  | "greedy-large" -> 30
  | _ -> 8

let end_to_end =
  [ ("setup_s", "s"); ("solve_s", "s"); ("cached_s", "s"); ("leakage_uA", "uA"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("cells.library_build_s", "s"); ("circuits.generate_s", "s"); ("netlist.emit_s", "s");
    ("netlist.parse_s", "s"); ("netlist.loaded_gates", "count"); ("sim.random_average_s", "s");
    ("sim.bitsim_words", "count"); ("sim.events", "count"); ("core.heu1_s", "s");
    ("core.exact_s", "s"); ("search.leaves", "count"); ("search.pruned", "count");
    ("search.gate_changes", "count"); ("search.bound_evaluations", "count");
    ("core.greedy_s", "s"); ("greedy.swaps", "count"); ("greedy.backoffs", "count");
    ("greedy.heap_pops", "count"); ("greedy.rounds", "count"); ("greedy.us_per_swap", "us");
    ("greedy.minor_words_per_swap", "words"); ("sta.worklist_pops", "count");
    ("sta.incremental_updates", "count"); ("sta.pops_per_swap", "count");
    ("sta.full_updates", "count"); ("service.digest_s", "s"); ("service.store_find_s", "s");
    ("service.hit_s", "s"); ("result_store.hits", "count"); ("result_store.misses", "count");
    ("server.hit_p50_ms", "ms"); ("server.hit_p90_ms", "ms"); ("server.miss_p50_ms", "ms");
    ("server.engine_job_ms", "ms"); ("server.overhead_ms", "ms"); ("cluster.hop_ms", "ms");
    ("cluster.routes", "count"); ("gc.minor_words", "words"); ("gc.major_collections", "count");
    ("telemetry.spans", "count"); ("telemetry.overhead_pct", "%");
  ]

(* Per-layer readings of one traced round: the round's own counters
   and latencies, plus span totals from the merged trace files. *)
let derive ~served ~bench_trace (r : Round.t) =
  let total, spans = Layer.span_totals (bench_trace :: r.Round.trace_files) in
  let own k = List.assoc_opt k r.Round.layer in
  let swaps = Option.value (own "greedy.swaps") ~default:0.0 in
  let greedy_s = total "bench.greedy" in
  let from_trace =
    [
      (* Served, the backend characterizes its library during the
         warm-up request. *)
      ("cells.library_build_s", total (if served then "bench.warm_up" else "bench.library_build"));
      ("circuits.generate_s", total "bench.generate");
      ("netlist.emit_s", total "bench.emit");
      ("netlist.parse_s", total "bench.parse");
      ("sim.random_average_s", total "bench.random_average");
      (* Served, the optimizer runs in the backend: its spans. *)
      ("core.heu1_s", if served then total "optimizer.run" else total "bench.heu1");
      ("core.exact_s", total "bench.exact");
      ("core.greedy_s", greedy_s);
      ("greedy.us_per_swap", 1e6 *. Layer.ratio greedy_s swaps);
      ("sta.pops_per_swap", Layer.ratio (Option.value (own "sta.worklist_pops") ~default:0.0) swaps);
      ("service.digest_s", total "bench.digest");
      ("service.store_find_s", total "bench.store_find");
      ("service.hit_s", total "bench.hit" /. float_of_int r.Round.passes);
      ("telemetry.spans", float_of_int spans);
    ]
  in
  List.map
    (fun (name, _) ->
      match own name with
      | Some v -> (name, v)
      | None -> (name, Option.value (List.assoc_opt name from_trace) ~default:0.0))
    per_layer

(* Served, a phase's time is the sum over its requests of each
   request's median latency over every pass of the run, times the
   phase's passes.  A hit takes 1–45 ms and a miss up to about a
   second, so a slow spell of a shared host that covers some passes
   leaves a request's median alone, where it would move the wall time
   of those passes.  The tail stays in
   [server.hit_p90_ms]. *)
let served_times ~passes rounds =
  let per_round = List.map (fun r -> r.Round.latencies) rounds in
  let requests = List.length (List.hd per_round) in
  let sum f = List.fold_left ( +. ) 0.0 (List.init requests f) in
  let across i = List.map (fun l -> List.nth l i) per_round in
  ( sum (fun i -> Layer.median (List.map fst (across i))),
    float_of_int passes *. sum (fun i -> Layer.median (List.concat_map snd (across i))) )

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " body)

let run ~workload ~seed ~seconds ~trace ~small ~standbyopt ~run_dir =
  let st = Inproc.state () in
  let passes = if small then 1 else cached_passes workload in
  let setup_repeats = if small then 1 else Round.setup_repeats in
  let served = workload = "serve-routed" in
  let round =
    match workload with
    | "paper-suite" -> Inproc.round st ~run_dir ~setup_repeats ~cached_passes:passes (Inproc.paper_setup ~small ~seed)
    | "greedy-large" -> Inproc.round st ~run_dir ~setup_repeats ~cached_passes:passes (Inproc.greedy_setup ~small ~seed)
    | _ ->
      let reqs = Served.requests ~small ~seed in
      let resolved = Served.reference st reqs in
      fun ~traced -> Served.round st ~standbyopt ~run_dir ~setup_repeats ~cached_passes:passes ~traced reqs resolved
  in
  let bench_trace = Filename.concat run_dir "bench.jsonl" in
  let traced_round () =
    let r = Layer.traced bench_trace (fun () -> round ~traced:true) in
    (r, derive ~served ~bench_trace r)
  in
  (* At least three rounds, so that one slow round is never half of a
     median. *)
  let min_rounds = if small || trace then 1 else 3 in
  let started = Timer.unlimited () in
  let plain = ref [] and traced = ref [] in
  let rec loop () =
    let r = round ~traced:false in
    Printf.eprintf "perfbench: round setup %.3f s, solve %.3f s, cached %.3f s\n%!" r.Round.setup_s
      r.Round.solve_s r.Round.cached_s;
    plain := r :: !plain;
    if trace then traced := traced_round () :: !traced;
    if Timer.elapsed_s started < seconds || List.length !plain < min_rounds then loop ()
  in
  loop ();
  Proc.remove_tree (Filename.concat run_dir "store");
  if workload = "paper-suite" then
    Inproc.paper_properties ~small st.Inproc.ledger (Hashtbl.find_opt st.Inproc.leakages);
  let attempted, failed = Check.finish st.Inproc.ledger in
  let med f rs = Layer.median (List.map f rs) in
  let rounds = List.rev !plain in
  Printf.printf "perfbench: %s seed %d: %d round(s)%s, %d operations, %d failed\n" workload seed
    (List.length rounds)
    (if trace then Printf.sprintf " + %d traced" (List.length !traced) else "")
    attempted failed;
  let metrics =
    if not trace then
      (* In process, the high-water mark only grows: read it after the
         first round, so it does not depend on how many rounds fit.
         Served, every round has a fresh backend. *)
      let rss_of r = Option.value r.Round.rss_mb ~default:0.0 in
      let rss = if served then med rss_of rounds else rss_of (List.hd rounds) in
      let solve_s, cached_s =
        if served then served_times ~passes rounds
        else (med (fun r -> r.Round.solve_s) rounds, med (fun r -> r.Round.cached_s) rounds)
      in
      List.map2
        (fun (name, unit) v -> (name, unit, v))
        end_to_end
        [
          med (fun r -> r.Round.setup_s) rounds;
          solve_s;
          cached_s;
          med (fun r -> r.Round.leakage_ua) rounds;
          rss;
        ]
    else
      let layers = List.map snd !traced in
      let overhead =
        100.0
        *. (Layer.ratio (med (fun (r, _) -> r.Round.solve_s) !traced) (med (fun r -> r.Round.solve_s) rounds)
           -. 1.0)
      in
      List.map
        (fun (name, unit) ->
          let v =
            if name = "telemetry.overhead_pct" then overhead
            else Layer.median (List.map (List.assoc name) layers)
          in
          (name, unit, v))
        per_layer
  in
  List.iter (fun (name, unit, v) -> Printf.printf "  %-30s %14.6f %s\n" name v unit) metrics;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let standbyopt = ref "" and run_dir = ref "" and small = ref false and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S run rounds until S seconds have gone");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--standbyopt", Arg.Set_string standbyopt, "PATH the standbyopt executable (serve-routed)");
      ("--run-dir", Arg.Set_string run_dir, "DIR scratch directory for stores, sockets and traces");
      ("--small", Arg.Set small, " smoke-test sizes");
      ("--selftest", Arg.Set selftest, " check that the answer checker rejects tampered answers");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --standbyopt PATH --run-dir DIR";
  if !selftest then exit (Selftest.run ())
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
    end;
    if !run_dir = "" || (!workload = "serve-routed" && !standbyopt = "") then begin
      prerr_endline "perfbench: --run-dir (and --standbyopt for serve-routed) are required";
      exit 2
    end;
    let status =
      match
        run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~small:!small
          ~standbyopt:!standbyopt ~run_dir:!run_dir
      with
      | () -> 0
      | exception e ->
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        1
    in
    Proc.stop_all ();
    exit status
  end
