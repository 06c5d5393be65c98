type t = { start : Abstime.t; stop : Abstime.t }

let make_checked start stop =
  if Abstime.compare stop start < 0 then
    Error
      (Printf.sprintf "Interval.make: stop %s before start %s"
         (Abstime.to_string stop) (Abstime.to_string start))
  else Ok { start; stop }

let make start stop =
  match make_checked start stop with
  | Ok t -> t
  | Error m -> invalid_arg m

let instant t = { start = t; stop = t }

let of_ymd_pair (y1, m1, d1) (y2, m2, d2) =
  make (Abstime.of_ymd y1 m1 d1) (Abstime.of_ymd y2 m2 d2)

let start t = t.start
let stop t = t.stop
let is_instant t = Abstime.equal t.start t.stop

let contains t x =
  Abstime.compare t.start x <= 0 && Abstime.compare x t.stop <= 0

let overlaps a b =
  Abstime.compare a.start b.stop <= 0 && Abstime.compare b.start a.stop <= 0

let equal a b = Abstime.equal a.start b.start && Abstime.equal a.stop b.stop

let to_string t =
  if is_instant t then Abstime.to_string t.start
  else
    Printf.sprintf "[%s, %s]" (Abstime.to_string t.start)
      (Abstime.to_string t.stop)
