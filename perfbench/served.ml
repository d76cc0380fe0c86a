(* serve-routed: one `standbyopt serve` backend with one worker behind
   one `standbyopt route`, driven closed-loop over one Unix-socket
   connection to the router. *)

module Version = Standby_cells.Version
module Bench_io = Standby_netlist.Bench_io
module Benchmarks = Standby_circuits.Benchmarks
module Random_logic = Standby_circuits.Random_logic
module Optimizer = Standby_opt.Optimizer
module Job = Standby_service.Job
module Engine = Standby_service.Engine
module Result_store = Standby_service.Result_store
module Protocol = Standby_server.Protocol
module Client = Standby_server.Client
module Telemetry = Standby_telemetry.Telemetry
module Timer = Standby_util.Timer

type source = Builtin of string | Generated of { name : string; gen_seed : int; perm_seed : int }

type request = { label : string; source : source; penalty : float }

let source_name = function Builtin n -> n | Generated g -> g.name

(* Mid-size generated netlists shipped inline as .bench text. *)
let generated_inputs = 64
let generated_gates = 3000

(* The request sequence: every built-in circuit twice and six fixed
   generated netlists once, each request with its own fixed penalty.
   The seed permutes the generated netlists' OUTPUT declarations, which
   renumbers their gates, and the order of the requests.  The INPUT
   order stays, since it steers heu1's state search and with it the
   work per request. *)
let requests ~small ~seed =
  let builtins = if small then [ "c432"; "c880" ] else Benchmarks.names in
  let generated = if small then 1 else 6 in
  let sources =
    List.concat_map (fun n -> [ Builtin n; Builtin n ]) builtins
    @ List.init generated (fun i ->
          Generated { name = Printf.sprintf "gen%d" (i + 1); gen_seed = i + 1; perm_seed = (seed * 31) + i })
  in
  let reqs =
    List.mapi
      (fun i source ->
        let penalty = 0.02 +. (0.01 *. float_of_int i) in
        { label = Printf.sprintf "heu1/4opt/%s/%.2f" (source_name source) penalty; source; penalty })
      sources
  in
  Array.to_list (Inproc.shuffle ~seed (Array.of_list reqs))

(* Wire sources for every request; generating and emitting the inline
   netlists is set-up work. *)
let wire_sources reqs =
  List.map
    (fun r ->
      match r.source with
      | Builtin n -> Protocol.Circuit n
      | Generated { name; gen_seed; perm_seed } ->
        let net =
          Layer.span "bench.generate" (fun () ->
              Random_logic.generate ~name ~seed:gen_seed ~inputs:generated_inputs ~gates:generated_gates ())
        in
        let text = Layer.span "bench.emit" (fun () -> Bench_io.to_string net) in
        Protocol.Bench
          { name; text = Layer.span "bench.generate" (fun () -> Inproc.permute_declarations ~inputs:false ~seed:perm_seed text) })
    reqs

let optimize_request ~id source penalty =
  Protocol.Optimize
    {
      Protocol.id;
      source;
      mode = Version.default_mode;
      method_ = Optimizer.Heuristic_1;
      penalty;
      deadline_s = None;
      progress = false;
    }

(* ------------------------------------------------------------------ *)
(* In-process reference answers                                        *)

(* Each request answered by [Engine.execute] in this process, on the
   netlist the daemon sees (inline text parsed the same way).  Routed
   answers must equal these byte for byte.  Returns the resolved jobs. *)
let reference (st : Inproc.state) reqs =
  let libraries = Job.Library_cache.create () in
  let lib = Job.Library_cache.get libraries ~mode:Version.default_mode ~process:Inproc.process in
  List.map2
    (fun r source ->
      let net =
        match source with
        | Protocol.Circuit n -> Benchmarks.circuit n
        | Protocol.Bench { name; text } -> (
          match Bench_io.of_string ~name text with
          | Ok net -> net
          | Error msg -> failwith ("serve-routed: inline netlist does not parse: " ^ msg))
      in
      let job =
        Inproc.make_job ~lib ~mode_token:"4opt" ~mode:Version.default_mode ~circuit:(source_name r.source)
          ~net ~penalty:r.penalty Optimizer.Heuristic_1
      in
      let o = Engine.execute ~libraries job.Inproc.resolved in
      (match o.Engine.result with
       | None -> Check.observe_failure st.Inproc.ledger r.label "in-process reference failed"
       | Some res ->
         let x = Inproc.answer_of job res in
         Hashtbl.replace st.Inproc.leakages r.label x.Check.leakage;
         let cache = st.Inproc.cache in
         Check.reference st.Inproc.ledger r.label ~fp:x.Check.assignment ~check:(fun () ->
             Check.answer ~cache x));
      job.Inproc.resolved)
    reqs (wire_sources reqs)

(* ------------------------------------------------------------------ *)
(* Daemons                                                             *)

let rec connect ?(deadline_s = 20.0) address =
  match Client.connect ~connect_timeout_s:2.0 address with
  | Ok c -> c
  | Error e ->
    if deadline_s <= 0.0 then failwith ("cannot connect: " ^ Client.error_message e);
    Unix.sleepf 0.002;
    connect ~deadline_s:(deadline_s -. 0.002) address

let rpc ?trace client request =
  match Client.rpc ?trace client request with
  | Ok r -> r
  | Error e -> failwith ("rpc: " ^ Client.error_message e)

type cluster = {
  backend : Proc.daemon;
  router : Proc.daemon;
  backend_addr : Protocol.address;
  router_addr : Protocol.address;
  client : Client.t;
}

(* Relative socket paths: the daemons share the benchmark's working
   directory, and a short relative path stays under the sun_path
   limit however deep the checkout is. *)
let start ~standbyopt ~run_dir ~traced =
  let sock name = Filename.concat run_dir name in
  let store = Filename.concat run_dir "store" in
  Proc.fresh_dir store;
  let backend_addr = Protocol.Unix_socket (sock "backend.sock")
  and router_addr = Protocol.Unix_socket (sock "router.sock") in
  let trace name = if traced then [ "--trace"; Filename.concat run_dir name ] else [] in
  let log = Filename.concat run_dir "daemons.log" in
  let backend =
    Proc.spawn ~name:"backend" ~log standbyopt
      ([ "serve"; "--listen"; "unix:" ^ sock "backend.sock"; "--cache-dir"; store; "-j"; "1";
         "--log-level"; "warn" ]
      @ trace "backend.jsonl")
  in
  (* The router must find its backend listening. *)
  Client.close (connect backend_addr);
  let router =
    Proc.spawn ~name:"router" ~log standbyopt
      ([ "route"; "-b"; "unix:" ^ sock "backend.sock"; "--listen"; "unix:" ^ sock "router.sock";
         "--log-level"; "warn" ]
      @ trace "router.jsonl")
  in
  let client = connect router_addr in
  { backend; router; backend_addr; router_addr; client }

let stop ~run_dir c =
  Client.close c.client;
  let router_ok = Proc.stop c.router in
  let backend_ok = Proc.stop c.backend in
  List.iter
    (fun f -> Proc.remove_tree (Filename.concat run_dir f))
    [ "backend.sock"; "router.sock"; "store" ];
  if not (router_ok && backend_ok) then prerr_endline "perfbench: a daemon did not drain cleanly"

let describe r = Standby_telemetry.Json.to_string (Protocol.response_to_json r)

(* One optimize round trip, retried while the router has no healthy
   backend yet (set-up only). *)
let rec warm_up client ~deadline =
  match rpc client (optimize_request ~id:"warm-up" (Protocol.Circuit "c432") 0.9) with
  | Protocol.Result _ -> ()
  | (Protocol.Rejected _ | Protocol.Error_response _) when Unix.gettimeofday () < deadline ->
    Unix.sleepf 0.01;
    warm_up client ~deadline
  | r -> failwith ("serve-routed: warm-up request failed: " ^ describe r)

let backend_stats addr =
  let c = connect addr in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match rpc c Protocol.Stats with
      | Protocol.Stats_reply s -> s
      | _ -> failwith "stats: unexpected reply")

(* A counter from the router's own registry, read from its Prometheus
   exposition (the router's structured stats are its backends' sum). *)
let router_counter client name =
  match rpc client Protocol.Metrics with
  | Protocol.Metrics_reply { body; _ } ->
    let prefix = String.map (function '.' -> '_' | c -> c) name ^ " " in
    String.split_on_char '\n' body
    |> List.find_map (fun line ->
           if String.starts_with ~prefix line then
             float_of_string_opt
               (String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)))
           else None)
    |> Option.value ~default:0.0
  | _ -> failwith "metrics: unexpected reply"

(* ------------------------------------------------------------------ *)
(* One round                                                           *)

type reply = { req : request; latency_s : float; response : (Protocol.response, string) result }

let pass ~trace client reqs sources =
  List.map2
    (fun req source ->
      let t = Timer.unlimited () in
      let response =
        Layer.span "bench.rpc" (fun () ->
            match Client.rpc ?trace:(trace ()) client (optimize_request ~id:req.label source req.penalty) with
            | Ok r -> Ok r
            | Error e -> Error (Client.error_message e))
      in
      { req; latency_s = Timer.elapsed_s t; response })
    reqs sources

let record (st : Inproc.state) ~expect reply =
  let label = reply.req.label in
  match reply.response with
  | Ok (Protocol.Result p) ->
    let leakage_ok =
      match Hashtbl.find_opt st.Inproc.leakages label with
      | Some l -> Check.close ~tol:1e-9 p.Protocol.leakage_a l
      | None -> false
    in
    let ok = p.Protocol.status = expect && leakage_ok in
    if not ok then
      prerr_endline
        (Printf.sprintf "perfbench: %s: status %s (expected %s), leakage %.9g A" label p.Protocol.status
           expect p.Protocol.leakage_a);
    Check.observe st.Inproc.ledger label ~fp:p.Protocol.assignment ~ok ~check:(fun () ->
        Error "no in-process reference")
  | Ok r -> Check.observe_failure st.Inproc.ledger label ("unexpected response " ^ describe r)
  | Error msg -> Check.observe_failure st.Inproc.ledger label msg

let ms_quantile q replies = 1000.0 *. Layer.quantile q (List.map (fun r -> r.latency_s) replies)

let round (st : Inproc.state) ~standbyopt ~run_dir ~setup_repeats ~cached_passes ~traced reqs resolved =
  (* A trace context spans the traced round, so the router's and the
     backend's spans join the benchmark's in one merged tree. *)
  let trace () = if traced then Telemetry.current_context () else None in
  let with_ctx f =
    if traced then Telemetry.with_context { Telemetry.trace_id = Telemetry.mint_trace_id (); parent = None } f
    else f ()
  in
  with_ctx @@ fun () ->
  (* Only the daemons of the last set-up, the ones kept, trace. *)
  let setups = ref 0 in
  let (sources, c), setup_s =
    Round.repeat_setup ~repeats:setup_repeats
      ~discard:(fun (_, c) -> stop ~run_dir c)
      (fun () ->
        incr setups;
        Layer.span "bench.setup" (fun () ->
            let sources = wire_sources reqs in
            let c = start ~standbyopt ~run_dir ~traced:(traced && !setups = setup_repeats) in
            (match rpc c.client Protocol.Status with
             | Protocol.Status_reply _ -> ()
             | _ -> failwith "serve-routed: router did not answer STATUS");
            Layer.span "bench.warm_up" (fun () ->
                warm_up c.client ~deadline:(Unix.gettimeofday () +. 20.0));
            (sources, c)))
  in
  Fun.protect ~finally:(fun () -> stop ~run_dir c) @@ fun () ->
  let b0 = if traced then Some (backend_stats c.backend_addr, router_counter c.client "cluster.routes") else None in
  Gc.compact ();
  let g0 = Layer.snapshot () in
  let misses, solve_s = Timer.time (fun () -> Layer.span "bench.solve" (fun () -> pass ~trace c.client reqs sources)) in
  let b1 = if traced then Some (backend_stats c.backend_addr) else None in
  let g_solved = Layer.snapshot () in
  Gc.compact ();
  let g_compacted = Layer.snapshot () in
  let hit_passes, cached_s =
    Timer.time (fun () ->
        Layer.span "bench.cached" (fun () -> List.init cached_passes (fun _ -> pass ~trace c.client reqs sources)))
  in
  let hits = List.concat hit_passes in
  let g1 = Layer.snapshot () in
  let layer =
    match (b0, b1) with
    | Some (s0, routes0), Some s1 ->
      let s2 = backend_stats c.backend_addr in
      let routes = router_counter c.client "cluster.routes" -. routes0 in
      (* The same hits straight to the backend: the router's hop. *)
      let direct =
        let d = connect c.backend_addr in
        Fun.protect ~finally:(fun () -> Client.close d) (fun () -> pass ~trace d reqs sources)
      in
      let job_s, jobs = Layer.histogram_delta s1 s2 "engine.job_wall_s" in
      let engine_ms = 1000.0 *. Layer.ratio job_s (float_of_int jobs) in
      let mean_hit_ms =
        1000.0 *. Layer.ratio (List.fold_left (fun a r -> a +. r.latency_s) 0.0 hits) (float_of_int (List.length hits))
      in
      [
        ("server.hit_p50_ms", ms_quantile 0.5 hits);
        ("server.hit_p90_ms", ms_quantile 0.9 hits);
        ("server.miss_p50_ms", ms_quantile 0.5 misses);
        ("server.engine_job_ms", engine_ms);
        ("server.overhead_ms", mean_hit_ms -. engine_ms);
        ("cluster.hop_ms", ms_quantile 0.5 hits -. ms_quantile 0.5 direct);
        ("cluster.routes", routes);
        ("service.hit_s", job_s /. float_of_int cached_passes);
        (* The backend exports no GC counters: these are the client's. *)
        ("gc.minor_words", Layer.gc_minor_words [ (g0, g_solved); (g_compacted, g1) ]);
        ("gc.major_collections", Layer.gc_majors [ (g0, g_solved); (g_compacted, g1) ]);
      ]
      @ Layer.counter_deltas s0 s2
    | _ -> []
  in
  let rss_mb = Proc.vm_hwm_mb (Some c.backend.Proc.pid) in
  (* Service-layer probe against the backend's store, traced rounds
     only: the digest and lookup a hit starts with, in this process. *)
  if traced then begin
    let store = Result_store.create ~dir:(Filename.concat run_dir "store") () in
    List.iter
      (fun r ->
        let key = Layer.span "bench.digest" (fun () -> Job.key r) in
        ignore (Layer.span "bench.store_find" (fun () -> Result_store.find store ~key)))
      resolved
  end;
  List.iter (record st ~expect:"computed") misses;
  List.iter (record st ~expect:"cached") hits;
  let leakage_ua =
    List.fold_left
      (fun acc r -> match r.response with Ok (Protocol.Result p) -> acc +. (p.Protocol.leakage_a *. 1e6) | _ -> acc)
      0.0 misses
  in
  {
    Round.setup_s;
    solve_s;
    cached_s;
    leakage_ua;
    rss_mb;
    layer;
    passes = cached_passes;
    trace_files =
      (if traced then List.map (Filename.concat run_dir) [ "backend.jsonl"; "router.jsonl" ] else []);
    latencies =
      List.mapi
        (fun i miss -> (miss.latency_s, List.map (fun p -> (List.nth p i).latency_s) hit_passes))
        misses;
  }
