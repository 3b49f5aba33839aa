(* layers — the benchmark's per-layer harness.

     layers daemon BASE_SPEC OPS_FILE WORKDIR RUN_JOURNAL
     layers corpus MANIFEST WORKDIR

   Replays a benchmark run's inputs in-process and times the calls into
   each layer's public functions: for the daemon workloads the requests
   of OPS_FILE (one "admit DECL", "what-if DECL" or "retire NAME" per
   line) against a resident plant built from BASE_SPEC, following the
   daemon's answer path (memo, warm, component-local synth, whole-model
   synth; certify, check, digest, journal); for spec-corpus the
   "synth|exact SOLVER PATH" lines of MANIFEST as rtsyn runs them.

   Every call is wrapped in a span (name, start, end, parent, request
   id).  Spans are kept in memory and written to WORKDIR/spans.jsonl at
   the end.  The replay runs three times from a fresh state: once to
   warm the process-wide caches, once untraced (request times) and once
   traced (layer times).  One JSON object of per-layer figures goes to
   stdout. *)

open Rt_core
module Checker = Rt_check.Checker
module Journal = Rt_daemon.Journal
module Canon = Rt_daemon.Canon

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  rid : int;
  parent : int;
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let rid = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    incr next_id;
    let s =
      {
        id = !next_id;
        name;
        rid = !rid;
        parent = (match !open_spans with p :: _ -> p | [] -> 0);
        t0 = now ();
        t1 = 0.;
      }
    in
    open_spans := s.id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        open_spans := List.tl !open_spans;
        spans := s :: !spans)
      f
  end

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"rid\":%d,\"id\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.name s.rid s.id s.parent s.t0 s.t1)
    (List.rev !spans);
  close_out oc

(* Self time of every span: its duration minus its children's. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace child s.parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s ->
      ( s,
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id) ))
    !spans

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median over requests of each layer's self time in that request (ms),
   over the requests the layer ran in. *)
let layer_medians () =
  let per = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if s.name <> "request" then
        let k = (s.name, s.rid) in
        Hashtbl.replace per k
          (self +. Option.value ~default:0. (Hashtbl.find_opt per k)))
    (self_times ());
  let by_layer = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (name, _) v ->
      Hashtbl.replace by_layer name
        ((v *. 1000.)
        :: Option.value ~default:[] (Hashtbl.find_opt by_layer name)))
    per;
  fun name -> median (Option.value ~default:[] (Hashtbl.find_opt by_layer name))

(* Over requests: the median time their layer spans cover (ms), and the
   median share of the request's own time they cover. *)
let layer_sum () =
  let covered =
    List.filter_map
      (fun s ->
        if s.name = "request" then
          let c =
            List.fold_left
              (fun acc c -> if c.parent = s.id then acc +. (c.t1 -. c.t0) else acc)
              0. !spans
          in
          Some (c *. 1000., c /. (s.t1 -. s.t0))
        else None)
      !spans
  in
  (median (List.map fst covered), median (List.map snd covered))

(* The tracing overhead, measured directly: the cost of one span times
   the spans per request, as a share of the untraced request time.
   (Comparing a traced with an untraced pass instead measures the
   machine's drift between the passes more than the spans.) *)
let overhead_pct ~untraced =
  let n = 100_000 in
  let requests = List.length untraced in
  let per_request =
    float_of_int (List.length (List.filter (fun s -> s.rid <= requests) !spans))
    /. float_of_int requests
  in
  let saved = !spans in
  tracing := true;
  let t0 = now () in
  for _ = 1 to n do
    span "probe" ignore
  done;
  let cost = (now () -. t0) /. float_of_int n in
  tracing := false;
  spans := saved;
  100. *. per_request *. cost
  /. (List.fold_left ( +. ) 0. untraced /. float_of_int requests)

let counter c = Rt_par.Perf.value c

let allocated_words () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("layers: " ^ s); exit 2) fmt
let ok_or what = function Ok v -> v | Error e -> die "%s: %s" what e

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let verifies m sched =
  match Latency.verify m sched with
  | v -> Latency.all_ok v
  | exception Invalid_argument _ -> false

(* Certify, trusted check and the digests the daemon journals. *)
let certify_check_digest m sched =
  match span "certify" (fun () -> Certify.schedule m sched) with
  | Error e -> Error e
  | Ok cert -> (
      match span "check" (fun () -> Checker.check m cert) with
      | Error d -> Error (String.concat "; " d)
      | Ok () ->
          let json, digest =
            span "digest" (fun () ->
                let json = Rt_spec.Persist.save_certificate_string m cert in
                ignore (Rt_check.Certificate.digest_of_model m);
                (json, Journal.digest_string json))
          in
          Ok (digest, String.length json))

(* ------------------------------------------------------------------ *)
(* Daemon workloads                                                    *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable model : Model.t;
  mutable sched : Schedule.t option;
  memo : (string, int array) Hashtbl.t;
  cache : (string, Schedule.t) Hashtbl.t;
  journal : Journal.t;
  journal_path : string;
  mutable solves : int;
  mutable reuses : int;
  cert_kb : float list ref;
  record_kb : float list ref;
  source_kb : float list ref;
}

let request_budget () = Budget.create ~wall_s:2.0 ~fuel:2_000_000 ()

(* The daemon's component-local rung: cached components answer from the
   cache, the others are synthesized; the interleaved schedule is
   verified against the whole model. *)
let decomposed st ?budget m' =
  match Decompose.components m' with
  | [] | [ _ ] -> `Skip
  | comps -> (
      let exception Stop of [ `Rejected | `Timeout | `Skip ] in
      let solve ~sub comp =
        let key = Decompose.interaction_key m' comp in
        match Hashtbl.find_opt st.cache key with
        | Some s ->
            st.reuses <- st.reuses + 1;
            s
        | None -> (
            st.solves <- st.solves + 1;
            match
              Synthesis.synthesize ?budget ~merge:false ~pipeline:false
                ~exact_fallback:true sub
            with
            | Ok plan ->
                Hashtbl.replace st.cache key plan.Synthesis.schedule;
                plan.Synthesis.schedule
            | Error e when e.Synthesis.stage = "exact" -> raise (Stop `Rejected)
            | Error _ -> (
                match Option.bind budget Budget.exhausted with
                | Some _ -> raise (Stop `Timeout)
                | None -> raise (Stop `Skip)))
      in
      try
        let scheds = Decompose.map_components ~solve m' comps in
        match Decompose.interleave m'.Model.comm scheds with
        | Error _ -> `Skip
        | Ok s -> if span "verify" (fun () -> verifies m' s) then `Sched s else `Skip
      with Stop r -> (r :> [ `Sched of Schedule.t | `Rejected | `Timeout | `Skip ]))

let solve st ?budget m' =
  span "solve" @@ fun () ->
  match decomposed st ?budget m' with
  | `Sched s -> Some s
  | `Rejected | `Timeout -> None
  | `Skip -> (
      match
        Synthesis.synthesize ?budget ~merge:false ~pipeline:false
          ~exact_fallback:true m'
      with
      | Ok plan -> Some plan.Synthesis.schedule
      | Error _ -> None)

let memo_store st canon sched =
  span "canon" (fun () ->
      Hashtbl.replace st.memo canon.Canon.key (Canon.canonical_slots canon sched))

let append st record =
  let before = file_size st.journal_path in
  span "journal" (fun () -> ok_or "journal" (Journal.append st.journal record));
  st.record_kb :=
    (float_of_int (file_size st.journal_path - before) /. 1024.) :: !(st.record_kb)

let splice src decl =
  match String.rindex_opt src '}' with
  | None -> die "printed model has no closing brace"
  | Some i ->
      String.sub src 0 i ^ "\n" ^ decl ^ "\n}"
      ^ String.sub src (i + 1) (String.length src - i - 1)

let admit_or_probe st ~commit decl =
  let name = List.nth (String.split_on_char ' ' decl) 1 in
  let m' =
    span "spec" (fun () ->
        let src = splice (Rt_spec.Printer.print st.model) decl in
        st.source_kb := (float_of_int (String.length src) /. 1024.) :: !(st.source_kb);
        Rt_spec.Elaborate.load src)
  in
  match m' with
  | Error _ -> false
  | Ok m' -> (
      match span "admission" (fun () -> Admission.admit m') with
      | Admission.Impossible _ -> false
      | _ -> (
          let canon = span "canon" (fun () -> Canon.of_model m') in
          let memo =
            match Hashtbl.find_opt st.memo canon.Canon.key with
            | None -> None
            | Some slots ->
                span "verify" (fun () ->
                    match Canon.schedule_of_slots canon slots with
                    | Some s when verifies m' s -> Some s
                    | _ -> None)
          in
          let found =
            match (memo, st.sched) with
            | Some s, _ -> Some s
            | None, Some s when span "verify" (fun () -> verifies m' s) -> Some s
            | None, _ -> solve st ~budget:(request_budget ()) m'
          in
          match found with
          | None -> false
          | Some sched -> (
              match certify_check_digest m' sched with
              | Error _ -> false
              | Ok (digest, json_len) ->
                  st.cert_kb := (float_of_int json_len /. 1024.) :: !(st.cert_kb);
                  if commit then begin
                    append st
                      (Journal.Admit
                         {
                           name;
                           decl;
                           digest = Rt_check.Certificate.digest_of_model m';
                           schedule = Schedule.to_string m'.Model.comm sched;
                           cert = digest;
                         });
                    st.model <- m';
                    st.sched <- Some sched;
                    memo_store st canon sched
                  end;
                  true)))

let retire st name =
  let constraints =
    List.filter (fun (c : Timing.t) -> c.Timing.name <> name) st.model.Model.constraints
  in
  let m' = Model.make ~comm:st.model.Model.comm ~constraints in
  match st.sched with
  | None -> false
  | Some sched -> (
      match certify_check_digest m' sched with
      | Error _ -> false
      | Ok (digest, json_len) ->
          st.cert_kb := (float_of_int json_len /. 1024.) :: !(st.cert_kb);
          append st
            (Journal.Retire
               { name; digest = Rt_check.Certificate.digest_of_model m'; cert = digest });
          st.model <- m';
          memo_store st (span "canon" (fun () -> Canon.of_model m')) sched;
          true)

let startup dir pass base_src =
  let m = ok_or "base spec" (Result.map_error (String.concat "; ") (Rt_spec.Elaborate.load base_src)) in
  let journal_path = Filename.concat dir (Printf.sprintf "pass%d.journal" pass) in
  (try Sys.remove journal_path with Sys_error _ -> ());
  let st =
    {
      model = m;
      sched = None;
      memo = Hashtbl.create 64;
      cache = Hashtbl.create 64;
      journal = ok_or "journal" (Journal.open_append journal_path);
      journal_path;
      solves = 0;
      reuses = 0;
      cert_kb = ref [];
      record_kb = ref [];
      source_kb = ref [];
    }
  in
  let sched =
    match solve st m with Some s -> s | None -> die "the base plant has no schedule"
  in
  let digest, _ = ok_or "base certificate" (certify_check_digest m sched) in
  ok_or "journal"
    (Journal.append st.journal
       (Journal.Init
          {
            spec = base_src;
            digest = Rt_check.Certificate.digest_of_model m;
            schedule = Schedule.to_string m.Model.comm sched;
            cert = digest;
          }));
  st.sched <- Some sched;
  memo_store st (Canon.of_model m) sched;
  st.solves <- 0;
  st.reuses <- 0;
  st

let parse_op line =
  match String.index_opt line ' ' with
  | None -> die "bad op line %S" line
  | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

(* One replay of the request list from a fresh state; returns the state,
   each request's wall time and how many requests were not answered. *)
let daemon_pass dir pass base_src ops ~traced =
  let st = startup dir pass base_src in
  let failed = ref 0 in
  tracing := traced;
  let times =
    List.mapi
      (fun i line ->
        rid := i + 1;
        let t0 = now () in
        let ok =
          span "request" (fun () ->
              match parse_op line with
              | "admit", decl -> admit_or_probe st ~commit:true decl
              | "what-if", decl -> admit_or_probe st ~commit:false decl
              | "retire", name -> retire st name
              | op, _ -> die "unknown op %S" op)
        in
        if not ok then incr failed;
        now () -. t0)
      ops
  in
  tracing := false;
  Journal.close st.journal;
  (st, times, !failed)

let daemon base_path ops_path dir run_journal =
  let base_src = read_file base_path in
  let ops =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_file ops_path))
  in
  let n_ops = float_of_int (List.length ops) in
  ignore (daemon_pass dir 0 base_src ops ~traced:false);
  let _, untraced, _ = daemon_pass dir 1 base_src ops ~traced:false in
  let w0 = counter Rt_par.Perf.windows_checked and a0 = allocated_words () in
  let st, _, failed = daemon_pass dir 2 base_src ops ~traced:true in
  let windows = counter Rt_par.Perf.windows_checked - w0
  and alloc = allocated_words () -. a0 in
  let layer = layer_medians () in
  let coverage_ms, covered = layer_sum () in
  let overhead = overhead_pct ~untraced in
  (* Probes on the base plant: the layers this workload does not reach
     on its own request path. *)
  let base = ok_or "base spec" (Result.map_error (String.concat "; ") (Rt_spec.Elaborate.load base_src)) in
  let t0 = now () in
  let plan = Synthesis.synthesize ~decompose:true base in
  let synth_ms = (now () -. t0) *. 1000. in
  let hyper = match plan with Ok p -> p.Synthesis.hyperperiod | Error _ -> 0 in
  let g0 = counter Rt_par.Perf.game_states
  and h0 = counter Rt_par.Perf.table_hits
  and k0 = counter Rt_par.Perf.dominance_kills in
  let t0 = now () in
  ignore (Exact.solve_decomposed ~granularity:`Atomic base);
  let game_ms = (now () -. t0) *. 1000. in
  let records =
    List.length
      (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_file run_journal)))
  in
  let t0 = now () in
  (match Rt_daemon.Engine.create ~journal:run_journal () with
  | Ok eng -> Rt_daemon.Engine.close eng
  | Error e -> die "replay of the run's journal failed: %s" e);
  let replay_ms = (now () -. t0) *. 1000. /. float_of_int (max 1 records) in
  write_spans (Filename.concat dir "spans.jsonl");
  [
    ("spec.ms", layer "spec"); ("spec.source_kb", median !(st.source_kb));
    ("admission.ms", layer "admission"); ("canon.ms", layer "canon");
    ("verify.ms", layer "verify"); ("verify.windows", float_of_int windows);
    ("solve.ms", layer "solve");
    ("solve.component_solves", float_of_int st.solves);
    ("solve.component_reuses", float_of_int st.reuses);
    ("certify.ms", layer "certify"); ("check.ms", layer "check");
    ("digest.ms", layer "digest"); ("digest.cert_kb", median !(st.cert_kb));
    ("journal.ms", layer "journal"); ("journal.record_kb", median !(st.record_kb));
    ("replay.ms_per_record", replay_ms);
    ("synth.ms", synth_ms); ("synth.hyperperiod", float_of_int hyper);
    ("game.ms", game_ms);
    ("game.states", float_of_int (counter Rt_par.Perf.game_states - g0));
    ("game.table_hits", float_of_int (counter Rt_par.Perf.table_hits - h0));
    ("game.dominance_kills", float_of_int (counter Rt_par.Perf.dominance_kills - k0));
    ("decompose.components", float_of_int (List.length (Decompose.components base)));
    ("alloc.mb_per_op", alloc *. 8. /. 1e6 /. n_ops);
    ("layer_sum_ms", coverage_ms);
    ("covered_share", covered);
    ("trace.overhead_pct", overhead);
    ("failed", float_of_int failed);
  ]

(* ------------------------------------------------------------------ *)
(* spec-corpus                                                         *)
(* ------------------------------------------------------------------ *)

let single_ops m =
  List.for_all
    (fun (c : Timing.t) -> Rt_base.Task_graph.size c.Timing.graph = 1)
    (Model.asynchronous m)

(* One specification as rtsyn runs it: load, gap tests, components, then
   synth (plan, certify, check, digest) or exact (game, verify on the
   asynchronous fragment, certify, check, digest).  True when it ends
   in a checked certificate. *)
let corpus_op (kind, solver, path) =
  let src = span "spec" (fun () -> read_file path) in
  match span "spec" (fun () -> Rt_spec.Elaborate.load src) with
  | Error _ -> false
  | Ok m -> (
      ignore (span "admission" (fun () -> Admission.admit m));
      ignore (span "decompose" (fun () -> Decompose.components m));
      match kind with
      | "synth" -> (
          match span "synth" (fun () -> Synthesis.synthesize ~decompose:true m) with
          | Error _ -> false
          | Ok plan ->
              Result.is_ok
                (certify_check_digest plan.Synthesis.model_used plan.Synthesis.schedule))
      | _ -> (
          let stats =
            span "game" (fun () ->
                match solver with
                | "unit" -> Exact.enumerate ~max_len:64 ~max_states:500_000 m
                | _ when single_ops m -> Exact.solve_single_ops ~max_states:500_000 m
                | _ -> Exact.enumerate_atomic ~max_len:64 ~max_states:500_000 m)
          in
          match stats.Exact.outcome with
          | Exact.Feasible sched ->
              ignore (span "verify" (fun () -> Latency.verify m sched));
              let m_async =
                Model.make ~comm:m.Model.comm ~constraints:(Model.asynchronous m)
              in
              Result.is_ok (certify_check_digest m_async sched)
          | _ -> false))

(* What rtsynd --spec would do with a feasible specification: solve it
   without rewrites, canonise it, journal the init record, and replay
   that journal. *)
let daemon_layers dir i src record_kb replays =
  match Rt_spec.Elaborate.load src with
  | Error _ -> ()
  | Ok m -> (
      match
        span "solve" (fun () ->
            Synthesis.synthesize ~merge:false ~pipeline:false ~decompose:true m)
      with
      | Error _ -> ()
      | Ok plan -> (
          let sched = plan.Synthesis.schedule in
          ignore (span "canon" (fun () -> Canon.of_model m));
          match certify_check_digest m sched with
          | Error _ -> ()
          | Ok (cert, _) ->
              let path = Filename.concat dir (Printf.sprintf "spec%d.journal" i) in
              (try Sys.remove path with Sys_error _ -> ());
              let j = ok_or "journal" (Journal.open_append path) in
              span "journal" (fun () ->
                  ok_or "journal"
                    (Journal.append j
                       (Journal.Init
                          {
                            spec = src;
                            digest = Rt_check.Certificate.digest_of_model m;
                            schedule = Schedule.to_string m.Model.comm sched;
                            cert;
                          })));
              Journal.close j;
              record_kb := (float_of_int (file_size path) /. 1024.) :: !record_kb;
              let t0 = now () in
              (match Rt_daemon.Engine.create ~journal:path () with
              | Ok eng -> Rt_daemon.Engine.close eng
              | Error e -> die "replay of %s failed: %s" path e);
              replays := ((now () -. t0) *. 1000.) :: !replays))

let corpus manifest dir =
  let entries =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' (String.trim l) with
        | [ kind; solver; path ] -> Some (kind, solver, path)
        | _ -> None)
      (String.split_on_char '\n' (read_file manifest))
  in
  let pass ~traced =
    let failed = ref 0 in
    tracing := traced;
    let times =
      List.mapi
        (fun i e ->
          rid := i + 1;
          let t0 = now () in
          if not (span "request" (fun () -> corpus_op e)) then incr failed;
          now () -. t0)
        entries
    in
    tracing := false;
    (times, !failed)
  in
  ignore (pass ~traced:false);
  let untraced, _ = pass ~traced:false in
  let w0 = counter Rt_par.Perf.windows_checked
  and a0 = allocated_words ()
  and g0 = counter Rt_par.Perf.game_states
  and h0 = counter Rt_par.Perf.table_hits
  and k0 = counter Rt_par.Perf.dominance_kills
  and s0 = counter Rt_par.Perf.decompose_component_solves
  and r0 = counter Rt_par.Perf.decompose_component_reuses in
  let _, failed = pass ~traced:true in
  let windows = counter Rt_par.Perf.windows_checked - w0
  and alloc = allocated_words () -. a0
  and game = (counter Rt_par.Perf.game_states - g0, counter Rt_par.Perf.table_hits - h0,
              counter Rt_par.Perf.dominance_kills - k0)
  and solves = counter Rt_par.Perf.decompose_component_solves - s0
  and reuses = counter Rt_par.Perf.decompose_component_reuses - r0 in
  let coverage_ms, covered = layer_sum () in
  let overhead = overhead_pct ~untraced in
  let models =
    List.filter_map
      (fun (_, _, p) -> Result.to_option (Rt_spec.Elaborate.load (read_file p)))
      entries
  in
  let components = List.fold_left (fun a m -> a + List.length (Decompose.components m)) 0 models in
  let hyper =
    List.fold_left
      (fun a (kind, _, p) ->
        if kind <> "synth" then a
        else
          match Rt_spec.Elaborate.load (read_file p) with
          | Error _ -> a
          | Ok m -> (
              match Synthesis.synthesize ~decompose:true m with
              | Ok plan -> max a plan.Synthesis.hyperperiod
              | Error _ -> a))
      0 entries
  in
  let sizes = List.map (fun (_, _, p) -> float_of_int (file_size p) /. 1024.) entries in
  let record_kb = ref [] and replays = ref [] in
  tracing := true;
  List.iteri
    (fun i (kind, _, p) ->
      rid := 1000 + i;
      if kind = "synth" then daemon_layers dir i (read_file p) record_kb replays)
    entries;
  tracing := false;
  let layer = layer_medians () in
  let cert_kb =
    List.filter_map
      (fun (_, _, p) ->
        let c = p ^ ".cert" in
        if Sys.file_exists c then Some (float_of_int (file_size c) /. 1024.) else None)
      entries
  in
  write_spans (Filename.concat dir "spans.jsonl");
  let g_states, g_hits, g_kills = game in
  [
    ("service.ms", median (List.map (fun t -> t *. 1000.) untraced));
    ("spec.ms", layer "spec"); ("spec.source_kb", median sizes);
    ("admission.ms", layer "admission"); ("canon.ms", layer "canon");
    ("verify.ms", layer "verify"); ("verify.windows", float_of_int windows);
    ("solve.ms", layer "solve");
    ("solve.component_solves", float_of_int solves);
    ("solve.component_reuses", float_of_int reuses);
    ("certify.ms", layer "certify"); ("check.ms", layer "check");
    ("digest.ms", layer "digest"); ("digest.cert_kb", median cert_kb);
    ("journal.ms", layer "journal"); ("journal.record_kb", median !record_kb);
    ("replay.ms_per_record", median !replays);
    ("synth.ms", layer "synth"); ("synth.hyperperiod", float_of_int hyper);
    ("game.ms", layer "game"); ("game.states", float_of_int g_states);
    ("game.table_hits", float_of_int g_hits);
    ("game.dominance_kills", float_of_int g_kills);
    ("decompose.components", float_of_int components);
    ("alloc.mb_per_op", alloc *. 8. /. 1e6 /. float_of_int (List.length entries));
    ("layer_sum_ms", coverage_ms);
    ("covered_share", covered);
    ("trace.overhead_pct", overhead);
    ("failed", float_of_int failed);
  ]

let () =
  let fields =
    match Array.to_list Sys.argv with
    | [ _; "daemon"; base; ops; dir; journal ] -> daemon base ops dir journal
    | [ _; "corpus"; manifest; dir ] -> corpus manifest dir
    | _ ->
        die
          "usage: layers daemon BASE_SPEC OPS_FILE WORKDIR RUN_JOURNAL | layers \
           corpus MANIFEST WORKDIR"
  in
  print_endline
    ("{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) fields)
    ^ "}")
