(* fuzz-smoke: fixed-seed, tightly budgeted campaigns wired into
   `dune runtest` (mirroring bench/smoke.exe). Each campaign must hold
   two properties:

   - it finds no failures at the pinned seed — the whole-system-
     persistence property holds across every crash schedule and every
     compiled/uncompiled differential pair it covers (for the service
     campaigns: the serializability + acked-durability oracle);

   - its report is byte-identical at jobs=1 and jobs=2 — the Pool
     fan-out is a pure scheduling change;

   - its report's MD5 equals a recorded constant, so a change meant to
     preserve behaviour cannot move a single byte of it.

   The campaigns: the kernel crash/differential campaign, the service
   campaign, a txn campaign (min_txns = 1, every trial a cross-shard
   2PC store crashed mid-protocol) and a steal campaign (every trial
   served through the work-stealing scheduler).

   Budgets are deliberately small to keep runtest fast. *)

module Campaign = Capri_fuzz.Campaign
module Service_fuzz = Capri_fuzz.Service_fuzz

let smoke name ~digest ~render ~clean campaign =
  let r1 = campaign 1 in
  let seq = render r1 in
  let par = render (campaign 2) in
  if seq <> par then begin
    Printf.eprintf "fuzz-smoke: parallel %s report differs from sequential:\n"
      name;
    prerr_endline "--- jobs=1 ---";
    prerr_string seq;
    prerr_endline "--- jobs=2 ---";
    prerr_string par;
    exit 1
  end;
  print_string seq;
  let got = Digest.to_hex (Digest.string seq) in
  if got <> digest then begin
    Printf.eprintf "fuzz-smoke: %s report digest %s, expected %s\n" name got
      digest;
    exit 1
  end;
  if not (clean r1) then begin
    Printf.eprintf "fuzz-smoke: %s campaign reported failures\n" name;
    exit 1
  end

let service name ~digest cfg =
  smoke name ~digest ~render:Service_fuzz.render
    ~clean:(fun r -> r.Service_fuzz.failures = [])
    (fun jobs -> Service_fuzz.run { cfg with Service_fuzz.jobs })

let () =
  smoke "kernel" ~digest:"0e89de202198f0750491fe553f0c26b8"
    ~render:Campaign.render
    ~clean:(fun r -> r.Campaign.failures = [])
    (fun jobs ->
      Campaign.run
        {
          Campaign.default_cfg with
          Campaign.seed = 7;
          budget = 60;
          jobs;
          max_schedules = 10;
          diff_combos = 2;
        });
  service "service" ~digest:"247cfed8e2ad8336c3fd36d671d3246c"
    { Service_fuzz.default_cfg with Service_fuzz.seed = 7; budget = 40 };
  service "txn" ~digest:"5292175d6c52d3ff8b66f153f40f8db9"
    {
      Service_fuzz.default_cfg with
      Service_fuzz.seed = 11;
      budget = 25;
      max_schedules = 4;
      min_txns = 1;
      max_txns = 2;
    };
  service "steal" ~digest:"71b480019152f9568c2daddf0c14ced0"
    {
      Service_fuzz.default_cfg with
      Service_fuzz.seed = 5;
      budget = 30;
      max_schedules = 4;
      steal = true;
    };
  print_endline "fuzz-smoke OK"
