(* Tests for the analytic queueing models used by §6.1. *)

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let md1_queue_values () =
  check_float "rho 0" 0.0 (Queueing.Models.md1_queue_length 0.0);
  (* rho=0.5: 0.5 + 0.25/1 = 0.75 *)
  check_float "rho 0.5" 0.75 (Queueing.Models.md1_queue_length 0.5);
  (* rho=0.7: 0.7 + 0.49/0.6 *)
  check_float "rho 0.7" (0.7 +. (0.49 /. 0.6)) (Queueing.Models.md1_queue_length 0.7)

let paper_claim_70_percent () =
  (* §6.1: at <= ~70% utilization, M/D/1 mean queue length is about one
     packet or less (counting the packet in transmission), and queueing
     delay is about the transmission time of half an average packet. *)
  check_bool "queue <= ~1.5 up to 0.7" true
    (Queueing.Models.md1_queue_length 0.7 <= 1.52);
  check_bool "wait at 0.5 = half a service time" true
    (abs_float (Queueing.Models.md1_wait ~rho:0.5 ~service:1.0 -. 0.5) < 1e-9)

let md1_wait_values () =
  check_float "wait rho .5 svc 2" 1.0 (Queueing.Models.md1_wait ~rho:0.5 ~service:2.0);
  check_float "sojourn adds service" 3.0
    (Queueing.Models.md1_sojourn ~rho:0.5 ~service:2.0)

let mm1_values () =
  check_float "L rho .5" 1.0 (Queueing.Models.mm1_queue_length 0.5);
  check_float "W rho .5 svc 1" 1.0 (Queueing.Models.mm1_wait ~rho:0.5 ~service:1.0)

let mg1_specializes () =
  (* cs2=0 -> M/D/1; cs2=1 -> M/M/1 *)
  check_float "mg1 cs2=0 = md1"
    (Queueing.Models.md1_wait ~rho:0.6 ~service:1.5)
    (Queueing.Models.mg1_wait ~rho:0.6 ~service:1.5 ~cs2:0.0);
  check_float "mg1 cs2=1 = mm1"
    (Queueing.Models.mm1_wait ~rho:0.6 ~service:1.5)
    (Queueing.Models.mg1_wait ~rho:0.6 ~service:1.5 ~cs2:1.0)

let domain_checks () =
  Alcotest.check_raises "rho >= 1" (Invalid_argument "Queueing: need 0 <= rho < 1")
    (fun () -> ignore (Queueing.Models.md1_queue_length 1.0));
  Alcotest.check_raises "rho < 0" (Invalid_argument "Queueing: need 0 <= rho < 1")
    (fun () -> ignore (Queueing.Models.mm1_queue_length (-0.1)))

let monotone_in_rho =
  QCheck.Test.make ~name:"md1 queue grows with rho" ~count:100
    QCheck.(pair (float_range 0.0 0.98) (float_range 0.0 0.98))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Queueing.Models.md1_queue_length lo <= Queueing.Models.md1_queue_length hi +. 1e-12)

let md1_below_mm1 =
  QCheck.Test.make ~name:"md1 wait <= mm1 wait (deterministic beats exp)" ~count:100
    QCheck.(float_range 0.01 0.95)
    (fun rho ->
      Queueing.Models.md1_wait ~rho ~service:1.0
      <= Queueing.Models.mm1_wait ~rho ~service:1.0 +. 1e-12)

let () =
  Alcotest.run "queueing"
    [
      ( "models",
        [
          Alcotest.test_case "md1 queue" `Quick md1_queue_values;
          Alcotest.test_case "paper 70% claim" `Quick paper_claim_70_percent;
          Alcotest.test_case "md1 wait" `Quick md1_wait_values;
          Alcotest.test_case "mm1" `Quick mm1_values;
          Alcotest.test_case "mg1 specializes" `Quick mg1_specializes;
          Alcotest.test_case "domain" `Quick domain_checks;
        ] );
      ( "properties",
        List.map Seeded.to_alcotest [ monotone_in_rho; md1_below_mm1 ] );
    ]
