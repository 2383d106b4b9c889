(* Checkpointable simulation sessions over either pipeline.  See sim.mli
   for the fixpoint and validation contracts. *)

module Bin = Ooo_common.Bin
module Engine = Ooo_common.Engine
module Params = Ooo_common.Params
module Json = Ooo_common.Stats.Json
module Trace = Iss.Trace
module Exp = Straight_core.Experiment
module Session = Ooo_common.Session
module Uop_stream = Ooo_common.Uop_stream

type spec = {
  target : Exp.target;
  params : Params.t;
  workload : Workloads.t;
  max_insns : int;
  max_dist : int;
  check : bool;
}

let spec ?(max_insns = Session.default_max_insns)
    ?(max_dist = Params.straight_max_dist) ?(check = true) ~model ~target
    workload =
  { target; params = model; workload; max_insns; max_dist; check }

type session = {
  spec : spec;
  live : Session.t;
}

let compile (s : spec) : Assembler.Image.t * Session.target =
  Exp.compile ~max_dist:s.max_dist s.target s.workload.Workloads.source

(* [snapshots] keeps the stream's prefix digest, without which [save]
   cannot fingerprint the trace *)
let start ?(snapshots = true) (s : spec) : session =
  let image, st = compile s in
  { spec = s;
    live =
      Session.start ~max_insns:s.max_insns ~check:s.check ~max_dist:s.max_dist
        ~digest:snapshots st s.params image }

let step s = Engine.step s.live.Session.engine
let finished s = Engine.finished s.live.Session.engine
let cycle s = Engine.cycle s.live.Session.engine

(* ---------- save ---------- *)

(* The trace fingerprint covers the prefix the stream has produced: the
   engine image references uops up to that head and no further. *)
let meta_of (s : session) : File.meta =
  let engine = s.live.Session.engine and stream = s.live.Session.stream in
  { File.kind = File.Engine_image;
    target = Exp.target_label s.spec.target;
    params_json = Json.to_string ~indent:false (Params.to_json s.spec.params);
    workload_name = s.spec.workload.Workloads.name;
    workload_source = s.spec.workload.Workloads.source;
    workload_iterations = s.spec.workload.Workloads.iterations;
    max_insns = s.spec.max_insns;
    max_dist = s.spec.max_dist;
    check = s.spec.check;
    cycle = Engine.cycle engine;
    committed = Engine.committed_count engine;
    trace_digest = Uop_stream.digest stream;
    output = Uop_stream.output stream;
    retired = s.live.Session.run_info.Trace.retired }

let save (s : session) path =
  let b = Buffer.create 65536 in
  Engine.save b s.live.Session.engine;
  File.save path (meta_of s) ~payload:(Buffer.contents b)

(* ---------- restore ---------- *)

let reject path fmt =
  Printf.ksprintf
    (fun reason ->
       Diag.error
         ~context:[ ("snapshot", path); ("reason", reason) ]
         Diag.Snapshot_error "cannot restore checkpoint %s: %s" path reason)
    fmt

let target_of_label path = function
  | "STRAIGHT(RAW)" -> Exp.Straight_raw
  | "STRAIGHT(RE+)" -> Exp.Straight_re
  | "SS" -> Exp.Riscv
  | l -> reject path "unknown target label %S" l

let spec_of_meta path (m : File.meta) : spec =
  let params =
    try Params.of_json (Json.of_string m.File.params_json) with
    | Params.Json_error msg -> reject path "embedded model: %s" msg
    | Json.Parse_error msg -> reject path "embedded model JSON: %s" msg
  in
  { target = target_of_label path m.File.target;
    params;
    workload =
      { Workloads.name = m.File.workload_name;
        source = m.File.workload_source;
        iterations = m.File.workload_iterations };
    max_insns = m.File.max_insns;
    max_dist = m.File.max_dist;
    check = m.File.check }

let restore_meta ~snapshots path (m : File.meta) (r : Bin.reader) : session =
  (match m.File.kind with
   | File.Engine_image -> ()
   | File.Interval _ ->
     reject path
       "this is a sampling-interval checkpoint, not an engine image \
        (use straightsim -sample to consume it)");
  let s = spec_of_meta path m in
  let image, st = compile s in
  let live =
    try
      Session.resume ~max_insns:s.max_insns ~check:s.check ~max_dist:s.max_dist
        st s.params image r
    with Bin.Corrupt msg -> reject path "engine image: %s" msg
  in
  (try Bin.expect_end r
   with Bin.Corrupt msg -> reject path "engine image: %s" msg);
  (* prove the regenerated prefix is the one the checkpoint was taken
     against, not merely shaped like it *)
  let stream = live.Session.stream in
  let digest = Uop_stream.digest stream in
  if digest <> m.File.trace_digest then
    reject path
      "regenerated trace digest %s differs from checkpoint digest %s \
       (compiler or ISS drift since the checkpoint was taken)"
      digest m.File.trace_digest;
  if Uop_stream.output stream <> m.File.output then
    reject path "regenerated program output differs from the checkpoint";
  let retired = live.Session.run_info.Trace.retired in
  if retired <> m.File.retired then
    reject path "regenerated run retired %d instructions, checkpoint ran %d"
      retired m.File.retired;
  if Engine.cycle live.Session.engine <> m.File.cycle then
    reject path "engine image is at cycle %d, meta records %d"
      (Engine.cycle live.Session.engine) m.File.cycle;
  if not snapshots then Uop_stream.forget_digest stream;
  { spec = s; live }

let restore ?(snapshots = true) path : session =
  let m, r = File.load path in
  restore_meta ~snapshots path m r

let resume ?(snapshots = true) (want : spec) path : session =
  let m, r = File.load path in
  let got = spec_of_meta path m in
  if got.target <> want.target then
    reject path "checkpoint targets %s, caller wants %s"
      (Exp.target_label got.target) (Exp.target_label want.target);
  if not (Params.equal got.params want.params) then
    reject path "checkpoint model %S (digest %s) differs from caller's %S \
                 (digest %s)"
      got.params.Params.name (Params.digest got.params)
      want.params.Params.name (Params.digest want.params);
  if got.workload.Workloads.name <> want.workload.Workloads.name
     || got.workload.Workloads.source <> want.workload.Workloads.source
     || got.workload.Workloads.iterations <> want.workload.Workloads.iterations
  then
    reject path "checkpoint workload %S differs from caller's %S"
      got.workload.Workloads.name want.workload.Workloads.name;
  if got.max_insns <> want.max_insns || got.max_dist <> want.max_dist then
    reject path "checkpoint budgets (max_insns %d, max_dist %d) differ from \
                 caller's (%d, %d)"
      got.max_insns got.max_dist want.max_insns want.max_dist;
  if got.check <> want.check then
    reject path "checkpoint %s the lockstep checker, caller %s it"
      (if got.check then "arms" else "omits")
      (if want.check then "arms" else "omits");
  restore_meta ~snapshots path m r

(* ---------- finish ---------- *)

let finish (s : session) : Exp.result =
  Exp.summarize ~model:s.spec.params ~target:s.spec.target s.spec.workload
    (Session.finish s.live)

(* ---------- driver loop ---------- *)

type outcome =
  | Completed of Exp.result
  | Stopped of { cycle : int; path : string }

let drive ?(checkpoint_every = 0) ?checkpoint_path ?stop_at
    ?deadlock_snapshot (s : session) : outcome =
  (match checkpoint_path, checkpoint_every, stop_at with
   | None, n, _ when n > 0 ->
     Diag.error Diag.Config_error
       "checkpoint interval given without a checkpoint path"
   | None, _, Some _ ->
     Diag.error Diag.Config_error
       "a stop cycle was given without a checkpoint path"
   | _ -> ());
  let step_guarded () =
    match deadlock_snapshot with
    | None -> step s
    | Some path ->
      (try step s
       with Diag.Error d when d.Diag.code = Diag.Sim_deadlock ->
         (* the watchdog raises at the cycle boundary, so the wedged
            machine is consistent and restorable *)
         save s path;
         raise
           (Diag.Error
              { d with Diag.context = d.Diag.context @ [ ("snapshot", path) ] }))
  in
  let stopped = ref None in
  while !stopped = None && not (finished s) do
    (match stop_at with
     | Some n when cycle s >= n ->
       let path = Option.get checkpoint_path in
       save s path;
       stopped := Some path
     | _ ->
       step_guarded ();
       if checkpoint_every > 0 && not (finished s)
          && cycle s mod checkpoint_every = 0
       then save s (Option.get checkpoint_path))
  done;
  match !stopped with
  | Some path -> Stopped { cycle = cycle s; path }
  | None -> Completed (finish s)

let run ?checkpoint_every ?checkpoint_path ?restore_from ?stop_at
    ?deadlock_snapshot (sp : spec) : outcome =
  let snapshots = checkpoint_path <> None || deadlock_snapshot <> None in
  let s =
    match restore_from with
    | Some path -> resume ~snapshots sp path
    | None -> start ~snapshots sp
  in
  drive ?checkpoint_every ?checkpoint_path ?stop_at ?deadlock_snapshot s

let run_restored path : Exp.result =
  let s = restore ~snapshots:false path in
  while not (finished s) do step s done;
  finish s
