(** Discrete-event execution of an FPGA schedule.

    Replays a {!Schedule.t} through a time-ordered event queue and checks,
    {e independently of the packing algorithms}, that the schedule is
    executable on the device: no two tasks share a column at the same time,
    each column rests at least the device's reconfiguration delay between
    different tasks, precedence edges (if given) are respected, and no task
    starts before its release (if given). Reports makespan and per-column
    utilisation — the numbers an FPGA operating system would care about. *)

type violation =
  | Column_conflict of int * int * int  (** task a, task b, column *)
  | Reconfig_too_fast of int * int * int  (** task a then b on column, gap < delay *)
  | Reconfig_port_busy of int * int
      (** tasks a and b reconfigure simultaneously on a device whose single
          configuration port serialises reconfigurations *)
  | Precedence_violated of int * int
  | Released_early of int

type report = {
  makespan : Spp_num.Rat.t;
  busy : Spp_num.Rat.t array;  (** per-column total busy time *)
  utilisation : float;  (** Σ busy / (K · makespan); 0 for empty schedules *)
  reconfigurations : int;  (** column acquisitions (task × column pairs) *)
  violations : violation list;
}

(** [run ?dag ?release sched] executes the schedule. [dag] enables
    precedence checking (edge (u,v): u must end before v starts); [release]
    maps task id to release time. *)
val run :
  ?dag:Spp_dag.Dag.t ->
  ?release:(int -> Spp_num.Rat.t) ->
  Schedule.t ->
  report

val pp_violation : Format.formatter -> violation -> unit

(** [waiting_times ~release sched] is [(task id, start − release)] per task
    — the response-latency metric an FPGA OS optimises. Entries are
    clamped at zero for tasks scheduled before their release (the
    validator, not this accessor, flags those). *)
val waiting_times : release:(int -> Spp_num.Rat.t) -> Schedule.t -> (int * Spp_num.Rat.t) list

(** [mean_wait ~release sched] is the average waiting time as a float
    (0 for the empty schedule). *)
val mean_wait : release:(int -> Spp_num.Rat.t) -> Schedule.t -> float

(** [gantt ?time_cols sched] renders a text Gantt chart: one line per
    column, time flowing right, each task shown as its id glyph. *)
val gantt : ?time_cols:int -> Schedule.t -> string
