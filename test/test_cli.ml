(* straightsim's flag contract, driven through the built executable: every
   mode x mode-specific-flag pair either runs to completion (exit 0) or is
   refused up front as a configuration error (exit 2, CONFIG_ERROR) —
   never silently ignored. *)

let exe = Filename.concat (Filename.concat ".." "bin") "straightsim.exe"

let dir = Filename.temp_dir "straightsim-cli" ""

let () =
  at_exit (fun () ->
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))

let path name = Filename.concat dir name

(* [straightsim args] = (exit code, stderr) *)
let straightsim args =
  let err = path "stderr.txt" in
  let code =
    Sys.command
      (Filename.quote_command exe args ~stdout:(path "stdout.txt") ~stderr:err)
  in
  (code, In_channel.with_open_text err In_channel.input_all)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let base = [ "-workload"; "iota"; "-model"; "ss-2way"; "-target"; "riscv" ]
let sample_args = [ "-sample"; "interval=300,warmup=50" ]

(* the four modes, by the arguments that select them; a restore takes
   its workload and model from the snapshot, so it gets no [base] *)
let modes snapshot =
  [ ("run", base);
    ("fast-forward", base @ [ "-fast-forward"; "200" ]);
    ("sample", base @ sample_args @ [ "-store"; path "store" ]);
    ("restore", [ "-restore"; snapshot ]) ]

(* each flag with the companions it needs on its own, and whether the
   pair is accepted in run / fast-forward / sample / restore mode *)
let flags snapshot =
  [ ("-stats-json", [ "-stats-json"; path "stats.json" ],
     (true, false, false, true));
    ("-checkpoint", [ "-checkpoint"; path "a.snap" ], (true, false, false, true));
    ("-checkpoint-every",
     [ "-checkpoint"; path "b.snap"; "-checkpoint-every"; "300" ],
     (true, false, false, true));
    ("-stop-at", [ "-checkpoint"; path "c.snap"; "-stop-at"; "100" ],
     (true, false, false, true));
    ("-dump-on-error", [ "-dump-on-error"; path "dump.txt" ],
     (true, true, true, true));
    (* run mode names a workload and model, which -restore refuses *)
    ("-restore", [ "-restore"; snapshot ], (false, false, false, true));
    ("-fast-forward", [ "-fast-forward"; "100" ], (true, true, false, false));
    ("-warm", [ "-warm" ], (false, true, false, false));
    ("-sample", sample_args, (true, false, true, false));
    ("-j", [ "-j"; "2" ], (false, false, true, false));
    ("-store", [ "-store"; path "store2" ], (false, false, true, false));
    ("-sample-json", [ "-sample-json"; path "sample.json" ],
     (false, false, true, false));
    ("-sample-check", [ "-sample-check" ], (false, false, true, false));
    ("-sample-floor", [ "-sample-floor"; "0.5" ], (false, false, true, false));
    (* selection flags: a snapshot embeds its own *)
    ("-model", [ "-model"; "ss-2way" ], (true, true, true, false));
    ("-target", [ "-target"; "riscv" ], (true, true, true, false));
    ("-workload", [ "-workload"; "iota" ], (true, true, true, false));
    ("-tage", [ "-tage" ], (true, true, true, false));
    ("-ideal", [ "-ideal" ], (true, true, true, false));
    ("-maxdist", [ "-maxdist"; "31" ], (true, true, true, false));
    ("-rob", [ "-rob"; "64" ], (true, true, true, false));
    ("-sched", [ "-sched"; "32" ], (true, true, true, false));
    ("-no-check", [ "-no-check" ], (true, true, true, false));
    ("-inject", [ "-inject"; "flip" ], (true, true, true, false));
    ("-seed", [ "-seed"; "3" ], (true, true, true, false));
    ("-inject-period", [ "-inject-period"; "500" ], (true, true, true, false));
    (* every mode but restore already names a -workload *)
    ("FILE", [ path "prog.c" ], (false, false, false, false)) ]

let test_mode_flag_table () =
  let snapshot = path "restore.snap" in
  (match
     straightsim (base @ [ "-checkpoint"; snapshot; "-stop-at"; "200" ])
   with
   | 0, _ -> ()
   | code, err -> Alcotest.failf "making the snapshot: exit %d: %s" code err);
  List.iter
    (fun (flag, args, (in_run, in_ff, in_sample, in_restore)) ->
       List.iter
         (fun ((mode, mode_args), allowed) ->
            let what = Printf.sprintf "%s under %s" flag mode in
            match straightsim (mode_args @ args), allowed with
            | (0, _), true -> ()
            | (2, err), false ->
              Alcotest.(check bool) (what ^ ": CONFIG_ERROR") true
                (contains ~sub:"CONFIG_ERROR" err)
            | (code, _), _ ->
              Alcotest.failf "%s: exit %d, want %s" what code
                (if allowed then "0" else "2 (CONFIG_ERROR)"))
         (List.combine (modes snapshot)
            [ in_run; in_ff; in_sample; in_restore ]))
    (flags snapshot)

(* an ISA/core mismatch is a configuration error before anything runs,
   with or without the lockstep checker *)
let test_isa_core_mismatch () =
  List.iter
    (fun args ->
       let code, err = straightsim ("-workload" :: "iota" :: args) in
       let what = String.concat " " args in
       Alcotest.(check int) (what ^ ": exit") 2 code;
       Alcotest.(check bool) (what ^ ": CONFIG_ERROR") true
         (contains ~sub:"CONFIG_ERROR" err))
    [ [ "-model"; "straight-2way"; "-target"; "riscv" ];
      [ "-model"; "straight-2way"; "-target"; "riscv"; "-no-check" ];
      [ "-model"; "ss-4way"; "-target"; "straight" ];
      [ "-model"; "ss-2way"; "-target"; "straight-raw"; "-fast-forward";
        "100" ];
      [ "-model"; "straight-4way"; "-target"; "riscv"; "-sample";
        "interval=300,warmup=50"; "-store"; path "store3" ] ]

let () =
  Alcotest.run "cli"
    [ ("straightsim",
       [ ("mode x flag table", `Quick, test_mode_flag_table);
         ("ISA/core mismatch", `Quick, test_isa_core_mismatch) ]) ]
