(* The [serve] workload: a forked straightd (1 pool worker, a fresh
   store per run) driven by 2 closed-loop connections from this
   process, each taking the next request of one seeded stream as soon as
   its previous request has completed.

   The stream mixes simulate requests (a point's first ask misses, its
   repeats hit the store, and each fresh point is asked twice in a row
   so the second ask coalesces onto the in-flight job), sample requests,
   and compile requests, over the daemon's quick-size workloads.

   Correctness: every reply is a result, no simulation fails in the
   daemon, and a repeated key's record equals the first record served
   for it (the "cached" flag aside). *)

module J = Ooo_common.Stats.Json

type kind = Simulate | Sample | Compile

type req = {
  idx : int;
  kind : kind;
  key : string;       (* content identity: the request minus its id *)
  body : (string * J.t) list;
}

let doc (r : req) : J.t = J.Obj (("id", J.Str (Printf.sprintf "r%d" r.idx)) :: r.body)

(* ---------- the seeded request stream ---------- *)

(* The mix is an assumption: the repository holds no trace of real
   traffic.  It is the smallest fixed cycle, drawn round-robin the way
   straightd-client -bench draws its -mix, that asks every request kind
   the workload covers and gives serve_miss_ms_p90 at least 10 samples
   beyond it (100 misses; a 40 s run completes thousands of requests).
   Each cycle of 10 requests is

     a fresh point, a miss: a sample request every 4th cycle, a
       simulate request otherwise;
     the same point again, taken by the other connection while the
       first ask is in flight, so it coalesces onto the same job;
     a compile request of a seeded target and workload (30 keys, so
       hits once each has been asked);
     7 repeats of seeded earlier points, store hits. *)
let cycle_len = 10

let workloads = Array.of_list Sweep.Grid.workload_names

(* Fresh simulate points leave out the two quick workloads that cost
   4-10x the others (coremark, fib), so the miss cost does not hinge on
   how many of them a seed draws; compile requests cover all ten. *)
let sim_workloads =
  List.filter (fun w -> w <> "coremark" && w <> "fib") Sweep.Grid.workload_names

(* Sampled runs need several intervals; these quick workloads retire
   enough instructions for that. *)
let sample_workloads = [ "sort"; "quicksort"; "dhrystone"; "wasm_sieve"; "wasm_expr" ]
let sample_spec = "interval=1000,warmup=200,every=2"
let machines = [ "ss"; "straight-re"; "straight-raw" ]

(* Fresh points walk every (workload, machine, width) combination once
   per pass, each pass in a seeded order, so the cost mix of the misses
   is the same whatever the seed; pass [k] gives them ROB size 48 + 4k,
   so no point repeats. *)
type walk = {
  combos : (string * string * int) list;
  mutable left : (string * string * int) list;   (* rest of this pass *)
  mutable pass : int;
}

let walk ws =
  { combos =
      List.concat_map
        (fun w -> List.concat_map (fun m -> [ (w, m, 2); (w, m, 4) ]) machines)
        ws;
    left = []; pass = -1 }

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort compare |> List.map snd

let key_of body = J.to_string ~indent:false (J.Obj body)

let fresh_point rng (w : walk) ~sample : (string * J.t) list =
  if w.left = [] then begin
    w.left <- shuffle rng w.combos;
    w.pass <- w.pass + 1
  end;
  let workload, machine, width = List.hd w.left in
  w.left <- List.tl w.left;
  [ ("op", J.Str (if sample then "sample" else "simulate"));
    ("machine", J.Str machine);
    ("width", J.Int width);
    ("rob", J.Int (48 + (4 * w.pass)));
    ("workload", J.Str workload);
    ("quick", J.Bool true) ]
  @ if sample then [ ("sample", J.Str sample_spec) ] else []

(* The first [n] requests of the seed's stream: the workload's input,
   generated during set-up. *)
let requests ~seed ~n : req array =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let sims = walk sim_workloads and samples = walk sample_workloads in
  let reqs = Array.make n { idx = 0; kind = Compile; key = ""; body = [] } in
  for idx = 0 to n - 1 do
    let mk kind body = { idx; kind; key = key_of body; body } in
    let cycle = idx / cycle_len in
    reqs.(idx) <-
      (match idx mod cycle_len with
       | 0 when cycle mod 4 = 3 -> mk Sample (fresh_point rng samples ~sample:true)
       | 0 -> mk Simulate (fresh_point rng sims ~sample:false)
       | 1 -> { (reqs.(idx - 1)) with idx }
       | 2 ->
         mk Compile
           [ ("op", J.Str "compile");
             ("target", J.Str (List.nth machines (Random.State.int rng 3)));
             ("workload", J.Str workloads.(Random.State.int rng (Array.length workloads)));
             ("quick", J.Bool true) ]
       (* a cycle's fresh point is the first request of the cycle *)
       | _ -> { (reqs.(cycle_len * Random.State.int rng (cycle + 1))) with idx })
  done;
  reqs

(* The same requests, one JSON line each. *)
let dump ~seed ~n : string =
  String.concat ""
    (Array.to_list
       (Array.map (fun r -> J.to_string ~indent:false (doc r) ^ "\n") (requests ~seed ~n)))

(* ---------- the daemon ---------- *)

type daemon = { pid : int; sock : string; dir : string }

(* Daemons started and not yet stopped; any left when the process exits
   (a failed set-up, an exception) are stopped then. *)
let live : daemon list ref = ref []

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* One pool worker: with two vCPUs, a second worker simulating next to
   the first leaves the daemon's event loop and the client no processor,
   and the hit latencies then measure the scheduler. *)
let pool_workers = 1

(* Fork straightd on a fresh store and wait until it answers [status]. *)
let start_daemon ~exe ~(work : string) ~(n : int) : daemon =
  let dir = Filename.concat work (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) n) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" in
  let pid =
    Unix.create_process exe
      [| exe; "-socket"; sock; "-j"; string_of_int pool_workers; "-cache-dir"; Filename.concat dir "store";
         "-quiet" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; sock; dir } in
  live := d :: !live;
  let deadline = Obs.now () +. 30.0 in
  let rec ask () =
    match Service.Client.connect sock with
    | c ->
      let reply =
        Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
            Service.Client.request c (J.Obj [ ("op", J.Str "status") ]))
      in
      if J.get_string (J.member "type" reply) <> Some "result" then
        failwith "straightd: status failed"
    | exception Diag.Error _ when Obs.now () < deadline ->
      Unix.sleepf 0.0005;
      ask ()
  in
  ask ();
  d

let stop_daemon (d : daemon) =
  live := List.filter (fun x -> x != d) !live;
  (match Service.Client.connect d.sock with
   | c ->
     (try ignore (Service.Client.request c (J.Obj [ ("op", J.Str "shutdown") ]))
      with Diag.Error _ -> ());
     Service.Client.close c
   | exception Diag.Error _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid);
  rm_rf d.dir

let () = at_exit (fun () -> List.iter stop_daemon !live)

(* Peak RSS of the daemon and each of its pool workers. *)
let daemon_rss (d : daemon) : float =
  let children =
    Array.to_list (Sys.readdir "/proc")
    |> List.filter (fun p ->
        match In_channel.with_open_text ("/proc/" ^ p ^ "/stat") In_channel.input_all with
        | exception Sys_error _ -> false
        | stat ->
          (* "pid (comm) state ppid ...": comm may hold blanks *)
          let after = String.sub stat (String.rindex stat ')' + 2)
              (String.length stat - String.rindex stat ')' - 2) in
          (match String.split_on_char ' ' after with
           | _state :: ppid :: _ -> ppid = string_of_int d.pid
           | _ -> false))
  in
  List.fold_left
    (fun acc p -> match Obs.peak_rss_mb p with Some v -> Float.max acc v | None -> acc)
    0.0 (string_of_int d.pid :: children)

(* ---------- the closed loop ---------- *)

type outcome = Hit | Miss | Coalesced

type sample = {
  req : req;
  outcome : outcome;
  latency : float;            (* send -> terminal reply *)
  ack : float;                (* send -> first reply line *)
  queued_to_result : float;   (* pool wait + worker; nan for hits *)
  finished : float;           (* seconds since the loop started *)
}

type result = {
  samples : sample list;
  wall : float;
  failures : string list;
  status : J.t;
  rss_mb : float;
  distinct_points : int;
}

let strip_cached (j : J.t) =
  match j with
  | J.Obj kv -> J.Obj (List.filter (fun (k, _) -> k <> "cached") kv)
  | j -> j

(* Drive [d] for [seconds] with two connections taking [reqs] in order.
   [corrupt] alters every first record as it is stored, so every later
   reply for the same key must be reported wrong. *)
let drive ?(corrupt = false) (d : daemon) (reqs : req array) ~seconds : result =
  let m = Mutex.create () in
  let locked f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f in
  let samples = ref [] and failures = ref [] in
  let first_record : (string, J.t) Hashtbl.t = Hashtbl.create 256 in
  let points : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let taken = ref 0 in
  let t0 = Obs.now () in
  let deadline = t0 +. seconds in
  let connection conn =
    match Service.Client.connect d.sock with
    | exception Diag.Error e -> locked (fun () -> failures := Diag.to_string e :: !failures)
    | c ->
      let rec loop () =
        let r =
          locked (fun () ->
              if !taken = Array.length reqs then None
              else begin
                incr taken;
                Some reqs.(!taken - 1)
              end)
        in
        match r with
        | Some r when Obs.now () < deadline ->
          let root = Obs.fresh () in
          let id = Printf.sprintf "c%d:r%d" conn r.idx in
          let first = ref nan and queued = ref nan and coalesced = ref false in
          let on_event j =
            let t = Obs.now () in
            if Float.is_nan !first then first := t;
            match J.get_string (J.member "event" j) with
            | Some "queued" -> queued := t
            | Some "coalesced" -> queued := t; coalesced := true
            | _ -> ()
          in
          let t_send = Obs.now () in
          let reply = Service.Client.request ~on_event c (doc r) in
          let t_end = Obs.now () in
          if Float.is_nan !first then first := t_end;
          let cached = J.member "cached" reply = Some (J.Bool true) in
          let outcome = if cached then Hit else if !coalesced then Coalesced else Miss in
          let span name a b = Obs.file (Obs.fresh ()) { Obs.name; id; parent = root; start = a; stop = b } in
          span "service.ack" t_send (if Float.is_nan !queued then !first else !queued);
          if not (Float.is_nan !queued) then
            span (if !coalesced then "service.coalesced" else "service.pool") !queued t_end;
          Obs.file root { Obs.name = "request"; id; parent = -1; start = t_send; stop = t_end };
          locked (fun () ->
              if r.kind <> Compile then Hashtbl.replace points r.key ();
              (match J.get_string (J.member "type" reply) with
               | Some "result" ->
                 let record = strip_cached (Option.value ~default:J.Null (J.member "result" reply)) in
                 (match Hashtbl.find_opt first_record r.key with
                  | None ->
                    Hashtbl.replace first_record r.key
                      (if corrupt then J.Obj [ ("corrupted", record) ] else record)
                  | Some first when first = record -> ()
                  | Some _ ->
                    failures := Printf.sprintf "%s: record differs from the first served for %s" id r.key :: !failures)
               | _ ->
                 failures := Printf.sprintf "%s: %s" id (J.to_string ~indent:false reply) :: !failures);
              samples :=
                { req = r; outcome; latency = t_end -. t_send; ack = !first -. t_send;
                  queued_to_result = (if Float.is_nan !queued then nan else t_end -. !queued);
                  finished = t_end -. t0 }
                :: !samples);
          loop ()
        | _ -> ()
      in
      (try loop ()
       with e -> locked (fun () -> failures := Printexc.to_string e :: !failures));
      Service.Client.close c
  in
  let threads = List.init 2 (fun i -> Thread.create connection i) in
  List.iter Thread.join threads;
  let wall = Obs.now () -. t0 in
  let status =
    match Service.Client.connect d.sock with
    | c ->
      Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
          Option.value ~default:J.Null
            (J.member "result" (Service.Client.request c (J.Obj [ ("op", J.Str "status") ]))))
    | exception Diag.Error e -> failures := Diag.to_string e :: !failures; J.Null
  in
  (match J.member "sim_failures" status with
   | Some (J.Int 0) -> ()
   | v ->
     failures :=
       ("daemon sim_failures: " ^ Option.fold ~none:"missing" ~some:(J.to_string ~indent:false) v)
       :: !failures);
  { samples = List.rev !samples; wall; failures = List.rev !failures; status;
    rss_mb = daemon_rss d; distinct_points = Hashtbl.length points }
