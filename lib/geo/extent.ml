type t = {
  space : Box.t;
  time : Interval.t;
}

let make space time = { space; time }

let rec pairwise_ok f = function
  | [] | [ _ ] -> true
  | x :: rest -> List.for_all (f x) rest && pairwise_ok f rest

let common_space boxes = pairwise_ok Box.overlaps boxes
let common_time intervals = pairwise_ok Interval.overlaps intervals
